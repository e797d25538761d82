// Command benchjson converts standard `go test -bench` text output into
// a JSON document, so benchmark runs can be archived and diffed by
// machines while the original text stays benchstat-friendly.
//
//	go test -run '^$' -bench . -benchmem ./internal/pipeline/ | tee bench.txt
//	benchjson -in bench.txt -out BENCH_pipeline.json
//
// Each entry records the package of the `pkg:` header above it, so one
// file may hold several packages' runs. Repeated names (from -count N)
// become repeated entries; downstream tooling can aggregate however it
// likes.
//
// With -compare it instead diffs two archived JSON runs and gates on
// regressions — the perf-PR guard `make benchcmp` builds on:
//
//	benchjson -compare [-threshold 10] old.json new.json
//
// Benchmarks are matched by package and name, repeated entries are
// averaged, ns/op and allocs/op deltas are printed per benchmark, and
// the exit status is 1 when either metric regresses by more than the
// threshold percentage on any benchmark present in both files.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// benchRun is one benchmark result line.
type benchRun struct {
	Pkg        string             `json:"pkg,omitempty"`
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"` // unit → value, e.g. "ns/op": 1234.5
}

// benchDoc is the whole converted run. Pkg is set only when every entry
// comes from one package; each entry carries its own.
type benchDoc struct {
	Goos       string     `json:"goos,omitempty"`
	Goarch     string     `json:"goarch,omitempty"`
	Pkg        string     `json:"pkg,omitempty"`
	CPU        string     `json:"cpu,omitempty"`
	Benchmarks []benchRun `json:"benchmarks"`
}

// parse reads go-bench text and extracts header context plus result lines.
func parse(r io.Reader) (benchDoc, error) {
	doc := benchDoc{Benchmarks: []benchRun{}}
	pkg := ""
	pkgs := map[string]bool{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			doc.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // PASS/FAIL or some other Benchmark-prefixed text
		}
		run := benchRun{
			Pkg:        pkg,
			Name:       strings.TrimPrefix(fields[0], "Benchmark"),
			Iterations: iters,
			Metrics:    map[string]float64{},
		}
		// Remaining fields come in (value, unit) pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return doc, fmt.Errorf("bad metric value %q in line %q", fields[i], line)
			}
			run.Metrics[fields[i+1]] = v
		}
		doc.Benchmarks = append(doc.Benchmarks, run)
		pkgs[pkg] = true
	}
	if len(pkgs) == 1 {
		doc.Pkg = pkg
	}
	return doc, sc.Err()
}

// loadDoc reads an archived benchmark JSON document. Entries written
// before entries carried their package take the document's.
func loadDoc(path string) (benchDoc, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return benchDoc{}, err
	}
	var doc benchDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		return benchDoc{}, fmt.Errorf("%s: %w", path, err)
	}
	for i := range doc.Benchmarks {
		if doc.Benchmarks[i].Pkg == "" {
			doc.Benchmarks[i].Pkg = doc.Pkg
		}
	}
	return doc, nil
}

// key identifies a benchmark across runs: its package-qualified name,
// or the bare name when the package is unknown.
func (r benchRun) key() string {
	if r.Pkg == "" {
		return r.Name
	}
	return r.Pkg + "." + r.Name
}

// aggregate averages repeated entries (from -count N runs) into one
// metric map per benchmark, keyed by package and name.
func aggregate(doc benchDoc) map[string]map[string]float64 {
	sums := map[string]map[string]float64{}
	counts := map[string]map[string]int{}
	for _, run := range doc.Benchmarks {
		k := run.key()
		if sums[k] == nil {
			sums[k] = map[string]float64{}
			counts[k] = map[string]int{}
		}
		for unit, v := range run.Metrics {
			sums[k][unit] += v
			counts[k][unit]++
		}
	}
	for name, m := range sums {
		for unit := range m {
			m[unit] /= float64(counts[name][unit])
		}
	}
	return sums
}

// compareUnits are the metrics the regression gate inspects.
var compareUnits = []string{"ns/op", "allocs/op"}

// compare diffs two aggregated runs, writing a per-benchmark report to w.
// It returns the names that regressed beyond threshold percent on any
// gated metric.
func compare(w io.Writer, oldAgg, newAgg map[string]map[string]float64, threshold float64) []string {
	names := make([]string, 0, len(newAgg))
	for name := range newAgg {
		if _, ok := oldAgg[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var regressed []string
	for _, name := range names {
		bad := false
		fmt.Fprintf(w, "%s\n", name)
		for _, unit := range compareUnits {
			o, hasOld := oldAgg[name][unit]
			n, hasNew := newAgg[name][unit]
			if !hasOld || !hasNew {
				continue
			}
			var delta float64
			switch {
			case o != 0:
				delta = (n - o) / o * 100
			case n != 0:
				delta = math.Inf(1) // 0 → something is an unbounded regression
			}
			mark := ""
			if delta > threshold {
				mark = "  REGRESSION"
				bad = true
			}
			fmt.Fprintf(w, "  %-10s %14.2f → %14.2f  %+7.2f%%%s\n", unit, o, n, delta, mark)
		}
		if bad {
			regressed = append(regressed, name)
		}
	}
	for name := range newAgg {
		if _, ok := oldAgg[name]; !ok {
			fmt.Fprintf(w, "%s\n  (new benchmark, no baseline)\n", name)
		}
	}
	for name := range oldAgg {
		if _, ok := newAgg[name]; !ok {
			fmt.Fprintf(w, "%s\n  (baseline only, not in new run)\n", name)
		}
	}
	return regressed
}

// runCompare drives -compare mode and returns the process exit code.
func runCompare(args []string, threshold float64) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two files: old.json new.json")
		return 2
	}
	oldDoc, err := loadDoc(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	newDoc, err := loadDoc(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	regressed := compare(os.Stdout, aggregate(oldDoc), aggregate(newDoc), threshold)
	if len(regressed) > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) regressed more than %.1f%%: %s\n",
			len(regressed), threshold, strings.Join(regressed, ", "))
		return 1
	}
	fmt.Printf("no regressions beyond %.1f%%\n", threshold)
	return 0
}

func main() {
	in := flag.String("in", "-", "bench text input file (- = stdin)")
	out := flag.String("out", "-", "JSON output file (- = stdout)")
	cmp := flag.Bool("compare", false, "compare two archived JSON runs (old.json new.json) instead of converting")
	threshold := flag.Float64("threshold", 10, "allowed ns/op and allocs/op regression percent in -compare mode")
	flag.Parse()

	if *cmp {
		os.Exit(runCompare(flag.Args(), *threshold))
	}

	var r io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		defer f.Close()
		r = f
	}
	doc, err := parse(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	b = append(b, '\n')
	if *out == "-" {
		os.Stdout.Write(b)
		return
	}
	if err := os.WriteFile(*out, b, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
