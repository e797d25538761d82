package serve

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"testing"

	"donorsense/internal/pipeline"
	"donorsense/internal/report"
)

// FuzzServeQuery sends arbitrary raw queries to every /api endpoint
// through Handler, over a snapshot of a small Analyze. Whatever the
// query (?state=, ?organ=, ?k=, unknown keys, broken escapes), the
// answer is 200, 400 or 404, never a panic, and serving it allocates a
// bounded amount plus a small multiple of the query's length.
func FuzzServeQuery(f *testing.F) {
	d := pipeline.SynthDataset(300, 1)
	cfg := report.DefaultAnalysisConfig()
	cfg.KUsers = 4
	cfg.SweepKs = nil
	cfg.SilhouetteSample = 0
	cfg.Workers = 1
	a, err := report.Analyze(d, cfg)
	if err != nil {
		f.Fatal(err)
	}
	p := NewPublisher()
	if _, err := p.Publish(a, Meta{Top: report.TopMentioners(d, 100)}); err != nil {
		f.Fatal(err)
	}
	h := NewHandler(p)

	for _, path := range DefaultPaths {
		route, raw, _ := strings.Cut(path, "?")
		f.Add(uint8(endpointOf(route)), raw)
	}
	for _, raw := range []string{"state=ca", "state=KS&organ=kidney", "organ=lungs", "k=-1", "k=99999999999999999999", "state=%zz", "x=1", "k=3&k=4"} {
		f.Add(uint8(epTop), raw)
		f.Add(uint8(epRR), raw)
	}

	f.Fuzz(func(t *testing.T, ep uint8, raw string) {
		req := &http.Request{
			Method: http.MethodGet,
			URL:    &url.URL{Path: endpointPaths[int(ep)%int(numEndpoints)], RawQuery: raw},
			Header: http.Header{},
		}
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound:
		default:
			t.Fatalf("%s?%q: status %d", req.URL.Path, raw, rec.Code)
		}
		if alloc, bound := after.TotalAlloc-before.TotalAlloc, uint64(256<<10+64*len(raw)); alloc > bound {
			t.Fatalf("%s?%q allocated %d bytes, bound %d", req.URL.Path, raw, alloc, bound)
		}
	})
}
