package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseBenchOutput(t *testing.T) {
	input := `goos: linux
goarch: amd64
pkg: donorsense/internal/pipeline
cpu: Example CPU @ 2.00GHz
BenchmarkProcess-8   	  123456	      9876 ns/op	    1234 B/op	      12 allocs/op
BenchmarkProcessAll-8	     500	   2345678 ns/op
PASS
ok  	donorsense/internal/pipeline	3.456s
`
	doc, err := parse(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Goos != "linux" || doc.Goarch != "amd64" || doc.Pkg != "donorsense/internal/pipeline" {
		t.Errorf("header = %+v", doc)
	}
	if len(doc.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(doc.Benchmarks))
	}
	b0 := doc.Benchmarks[0]
	if b0.Name != "Process-8" || b0.Iterations != 123456 {
		t.Errorf("b0 = %+v", b0)
	}
	if b0.Metrics["ns/op"] != 9876 || b0.Metrics["B/op"] != 1234 || b0.Metrics["allocs/op"] != 12 {
		t.Errorf("b0 metrics = %v", b0.Metrics)
	}
	if doc.Benchmarks[1].Metrics["ns/op"] != 2345678 {
		t.Errorf("b1 metrics = %v", doc.Benchmarks[1].Metrics)
	}
}

func TestAggregateAveragesRepeats(t *testing.T) {
	doc := benchDoc{Benchmarks: []benchRun{
		{Name: "X-8", Metrics: map[string]float64{"ns/op": 100, "allocs/op": 4}},
		{Name: "X-8", Metrics: map[string]float64{"ns/op": 300, "allocs/op": 4}},
		{Name: "Y-8", Metrics: map[string]float64{"ns/op": 50}},
	}}
	agg := aggregate(doc)
	if agg["X-8"]["ns/op"] != 200 || agg["X-8"]["allocs/op"] != 4 {
		t.Errorf("X-8 = %v", agg["X-8"])
	}
	if agg["Y-8"]["ns/op"] != 50 {
		t.Errorf("Y-8 = %v", agg["Y-8"])
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	oldAgg := map[string]map[string]float64{
		"Fast-8":   {"ns/op": 100, "allocs/op": 10},
		"Slow-8":   {"ns/op": 100, "allocs/op": 10},
		"Allocs-8": {"ns/op": 100, "allocs/op": 0},
		"Gone-8":   {"ns/op": 100},
	}
	newAgg := map[string]map[string]float64{
		"Fast-8":   {"ns/op": 90, "allocs/op": 10},  // improved
		"Slow-8":   {"ns/op": 150, "allocs/op": 10}, // +50% ns/op
		"Allocs-8": {"ns/op": 100, "allocs/op": 3},  // 0 → 3 allocs
		"New-8":    {"ns/op": 1},
	}
	var sb strings.Builder
	regressed := compare(&sb, oldAgg, newAgg, 10)
	if len(regressed) != 2 || regressed[0] != "Allocs-8" || regressed[1] != "Slow-8" {
		t.Errorf("regressed = %v, want [Allocs-8 Slow-8]", regressed)
	}
	out := sb.String()
	for _, want := range []string{"REGRESSION", "new benchmark, no baseline", "baseline only, not in new run"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestCompareWithinThresholdPasses(t *testing.T) {
	oldAgg := map[string]map[string]float64{"A-8": {"ns/op": 100, "allocs/op": 10}}
	newAgg := map[string]map[string]float64{"A-8": {"ns/op": 105, "allocs/op": 10}}
	var sb strings.Builder
	if regressed := compare(&sb, oldAgg, newAgg, 10); len(regressed) != 0 {
		t.Errorf("regressed = %v, want none within threshold", regressed)
	}
}

// TestTwoPackagesKeepTheirNames converts one file holding two packages'
// runs of a same-named benchmark: each entry keeps its own package, the
// document claims neither, and the comparison keys by package and name,
// so a regression in one package is not averaged away by the other.
func TestTwoPackagesKeepTheirNames(t *testing.T) {
	run := func(geoNS, pipelineNS string) benchDoc {
		t.Helper()
		doc, err := parse(strings.NewReader(`goos: linux
goarch: amd64
pkg: donorsense/internal/geo
BenchmarkLocate-8   	  1000	      ` + geoNS + ` ns/op	       0 allocs/op
PASS
ok  	donorsense/internal/geo	1.0s
goos: linux
goarch: amd64
pkg: donorsense/internal/pipeline
BenchmarkLocate-8   	  1000	      ` + pipelineNS + ` ns/op	       0 allocs/op
BenchmarkProcessAll-8	   500	   2345678 ns/op	      10 allocs/op
PASS
ok  	donorsense/internal/pipeline	2.0s
`))
		if err != nil {
			t.Fatal(err)
		}
		return doc
	}
	doc := run("100", "5000")
	if doc.Pkg != "" {
		t.Errorf("two-package document claims pkg %q", doc.Pkg)
	}
	wantPkgs := []string{"donorsense/internal/geo", "donorsense/internal/pipeline", "donorsense/internal/pipeline"}
	for i, b := range doc.Benchmarks {
		if b.Pkg != wantPkgs[i] {
			t.Errorf("entry %d (%s) pkg %q, want %q", i, b.Name, b.Pkg, wantPkgs[i])
		}
	}
	agg := aggregate(doc)
	if len(agg) != 3 || agg["donorsense/internal/geo.Locate-8"]["ns/op"] != 100 ||
		agg["donorsense/internal/pipeline.Locate-8"]["ns/op"] != 5000 {
		t.Fatalf("aggregate merged the packages: %v", agg)
	}
	var sb strings.Builder
	regressed := compare(&sb, agg, aggregate(run("150", "5000")), 10)
	if len(regressed) != 1 || regressed[0] != "donorsense/internal/geo.Locate-8" {
		t.Errorf("regressed = %v, want only the geo benchmark", regressed)
	}
}

// TestCompareNothingSharedFails compares a baseline recorded at one
// GOMAXPROCS with a run at another: every name differs by its -N
// suffix, nothing is compared, and the gate must fail rather than
// report no regressions. The same run against itself passes.
func TestCompareNothingSharedFails(t *testing.T) {
	dir := t.TempDir()
	write := func(name, bench string) string {
		t.Helper()
		doc, err := parse(strings.NewReader("pkg: donorsense/internal/report\n" + bench + "\tPASS\n"))
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", "BenchmarkRefresh   \t 100\t 5000 ns/op\t 10 allocs/op\n")
	multi := write("multi.json", "BenchmarkRefresh-2 \t 100\t 5000 ns/op\t 10 allocs/op\n")
	if code := runCompare([]string{base, multi}, 10); code == 0 {
		t.Fatal("comparing runs that share no benchmark passed")
	}
	if code := runCompare([]string{base, base}, 10); code != 0 {
		t.Fatalf("comparing a run with itself exited %d", code)
	}
}
