// Command queryload is a closed-loop load generator for the donorsense
// query API (donorsense serve, or donorsense collect -serve). It rotates
// a set of workers over the /api endpoints for a bounded duration and
// prints throughput, the latency distribution, and per-status counts:
//
//	queryload -base http://127.0.0.1:9090 -duration 5s -c 8 -etag
//
// The exit code doubles as a smoke check: nonzero when any transport
// error occurred, when no request completed, or (with -strict) when any
// response status was something other than 200 or 304.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"donorsense/internal/obs"
	"donorsense/internal/serve"
)

func main() {
	fs := flag.NewFlagSet("queryload", flag.ExitOnError)
	base := fs.String("base", "", "query API base URL, e.g. http://127.0.0.1:9090 (required)")
	duration := fs.Duration("duration", 5*time.Second, "load duration")
	concurrency := fs.Int("c", 4, "closed-loop workers")
	useETag := fs.Bool("etag", false, "replay each path's last ETag via If-None-Match (measures the 304 path)")
	paths := fs.String("paths", "", "comma-separated request paths (default: the fixed endpoints plus a top-k sample)")
	strict := fs.Bool("strict", false, "fail on any response status other than 200 or 304")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *base == "" {
		fmt.Fprintln(os.Stderr, "queryload: -base is required")
		fs.Usage()
		os.Exit(2)
	}
	cfg := serve.LoadConfig{
		BaseURL:     *base,
		Concurrency: *concurrency,
		Duration:    *duration,
		UseETag:     *useETag,
	}
	if *paths != "" {
		for _, p := range strings.Split(*paths, ",") {
			if p = strings.TrimSpace(p); p != "" {
				cfg.Paths = append(cfg.Paths, p)
			}
		}
	}

	ctx, stop := obs.SignalContext()
	defer stop()
	res, err := serve.RunLoad(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "queryload:", err)
		os.Exit(1)
	}
	fmt.Print(res.String())

	switch {
	case res.Requests == 0:
		fmt.Fprintln(os.Stderr, "queryload: no request completed")
		os.Exit(1)
	case res.Errors > 0:
		fmt.Fprintf(os.Stderr, "queryload: %d transport errors\n", res.Errors)
		os.Exit(1)
	case *strict:
		for code := range res.StatusCounts {
			if code != http.StatusOK && code != http.StatusNotModified {
				fmt.Fprintf(os.Stderr, "queryload: strict mode: saw status %d\n", code)
				os.Exit(1)
			}
		}
	}
}
