package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"donorsense/internal/obs"
	"donorsense/internal/pipeline"
	"donorsense/internal/report"
)

// testPublisher builds a publisher with one published snapshot over a
// synthetic dataset.
func testPublisher(t testing.TB, users int, seed uint64) (*Publisher, *Snapshot) {
	t.Helper()
	d := pipeline.SynthDataset(users, seed)
	cfg := report.DefaultAnalysisConfig()
	cfg.KUsers = 8
	cfg.SweepKs = nil
	cfg.SilhouetteSample = 0
	cfg.Workers = 2
	e := report.NewEngine(d, cfg)
	a, err := e.Refresh()
	if err != nil {
		t.Fatalf("refresh: %v", err)
	}
	p := NewPublisher()
	snap, err := p.Publish(a, Meta{
		Epoch:     e.Epoch(),
		Refreshes: e.Refreshes(),
		Top:       report.TopMentioners(d, 100),
	})
	if err != nil {
		t.Fatalf("publish: %v", err)
	}
	return p, snap
}

func get(t testing.TB, h http.Handler, path string, hdr ...string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// decodeMeta pulls the seq/epoch/etag envelope out of a response body.
func decodeMeta(t testing.TB, body []byte) docMeta {
	t.Helper()
	var m docMeta
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("body not JSON: %v\n%s", err, body)
	}
	return m
}

func TestFixedEndpointsServeCachedBodies(t *testing.T) {
	p, snap := testPublisher(t, 500, 1)
	h := NewHandler(p)
	for ep := endpoint(0); ep < numEndpoints; ep++ {
		rec := get(t, h, endpointPaths[ep])
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", endpointPaths[ep], rec.Code)
		}
		if got := rec.Header().Get("Etag"); got != snap.ETag() {
			t.Errorf("%s: ETag %q, want %q", endpointPaths[ep], got, snap.ETag())
		}
		if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Errorf("%s: Content-Type %q", endpointPaths[ep], ct)
		}
		m := decodeMeta(t, rec.Body.Bytes())
		if m.Seq != snap.Seq || m.Epoch != snap.Epoch || m.ETag != snap.ETag() {
			t.Errorf("%s: body meta %+v does not match snapshot seq=%d epoch=%d",
				endpointPaths[ep], m, snap.Seq, snap.Epoch)
		}
	}
	st := p.Stats()
	if st.Hits != uint64(numEndpoints) || st.Renders != 0 {
		t.Errorf("stats after fixed GETs: %+v", st)
	}
}

func TestIfNoneMatch(t *testing.T) {
	p, snap := testPublisher(t, 300, 2)
	h := NewHandler(p)

	rec := get(t, h, "/api/stats", "If-None-Match", snap.ETag())
	if rec.Code != http.StatusNotModified {
		t.Fatalf("matching If-None-Match: status %d, want 304", rec.Code)
	}
	if rec.Body.Len() != 0 {
		t.Fatalf("304 wrote %d body bytes", rec.Body.Len())
	}
	if got := rec.Header().Get("Etag"); got != snap.ETag() {
		t.Errorf("304 ETag %q, want %q", got, snap.ETag())
	}

	rec = get(t, h, "/api/stats", "If-None-Match", `"stale"`)
	if rec.Code != http.StatusOK || rec.Body.Len() == 0 {
		t.Fatalf("stale If-None-Match: status %d, body %d bytes", rec.Code, rec.Body.Len())
	}
	if st := p.Stats(); st.NotModified != 1 {
		t.Errorf("not_modified = %d, want 1", st.NotModified)
	}

	// Parameterized requests revalidate too.
	rec = get(t, h, "/api/top?k=5", "If-None-Match", snap.ETag())
	if rec.Code != http.StatusNotModified {
		t.Fatalf("parameterized If-None-Match: status %d, want 304", rec.Code)
	}
}

func TestGatingBeforeFirstPublish(t *testing.T) {
	h := NewHandler(NewPublisher())
	if rec := get(t, h, "/api/stats"); rec.Code != http.StatusNotFound {
		t.Fatalf("pre-publish GET: status %d, want 404", rec.Code)
	}
}

func TestUnknownRouteAndMethod(t *testing.T) {
	p, _ := testPublisher(t, 200, 3)
	h := NewHandler(p)
	if rec := get(t, h, "/api/nope"); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown route: status %d, want 404", rec.Code)
	}
	req := httptest.NewRequest(http.MethodPost, "/api/stats", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST: status %d, want 405", rec.Code)
	}
}

func TestParameterizedRenders(t *testing.T) {
	p, snap := testPublisher(t, 800, 4)
	h := NewHandler(p)

	// ?k= renders, is cached, and the repeat is a cache hit.
	rec := get(t, h, "/api/top?k=3")
	if rec.Code != http.StatusOK {
		t.Fatalf("top?k=3: status %d: %s", rec.Code, rec.Body.String())
	}
	var topDoc struct {
		K     int `json:"k"`
		Users []struct {
			ID    int64 `json:"id"`
			Total int64 `json:"total"`
		} `json:"users"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &topDoc); err != nil {
		t.Fatal(err)
	}
	if topDoc.K != 3 || len(topDoc.Users) != 3 {
		t.Fatalf("top?k=3 returned k=%d with %d users", topDoc.K, len(topDoc.Users))
	}
	for i := 1; i < len(topDoc.Users); i++ {
		if topDoc.Users[i].Total > topDoc.Users[i-1].Total {
			t.Fatalf("top users out of order: %+v", topDoc.Users)
		}
	}
	first := rec.Body.String()
	if rec = get(t, h, "/api/top?k=3"); rec.Body.String() != first {
		t.Fatal("repeat parameterized GET returned a different body")
	}
	st := p.Stats()
	if st.Renders != 1 {
		t.Fatalf("renders = %d after two identical GETs, want 1", st.Renders)
	}
	if st.CacheSize != 1 {
		t.Fatalf("cache size = %d, want 1", st.CacheSize)
	}

	// A state detail agrees with the states list.
	var list struct {
		States []struct {
			Code  string `json:"code"`
			Users int    `json:"users"`
		} `json:"states"`
	}
	if err := json.Unmarshal(snap.fixed[epStates], &list); err != nil {
		t.Fatal(err)
	}
	if len(list.States) == 0 {
		t.Fatal("no states in snapshot")
	}
	code := list.States[0].Code
	rec = get(t, h, "/api/states?state="+strings.ToLower(code))
	if rec.Code != http.StatusOK {
		t.Fatalf("states?state=%s: status %d: %s", code, rec.Code, rec.Body.String())
	}
	var detail struct {
		Code  string `json:"code"`
		Users int    `json:"users"`
		RR    []struct {
			Organ string `json:"organ"`
		} `json:"rr"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &detail); err != nil {
		t.Fatal(err)
	}
	if detail.Code != code || detail.Users != list.States[0].Users {
		t.Fatalf("state detail %+v does not match list entry %+v", detail, list.States[0])
	}

	// Organ details resolve case-insensitively; RR filters are subsets.
	if rec = get(t, h, "/api/organs?organ=Heart"); rec.Code != http.StatusOK {
		t.Fatalf("organs?organ=Heart: status %d", rec.Code)
	}
	var rrAll, rrHeart struct {
		Cells []struct {
			State string `json:"state"`
			Organ string `json:"organ"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(snap.fixed[epRR], &rrAll); err != nil {
		t.Fatal(err)
	}
	rec = get(t, h, "/api/rr?organ=heart")
	if err := json.Unmarshal(rec.Body.Bytes(), &rrHeart); err != nil {
		t.Fatal(err)
	}
	if len(rrHeart.Cells) == 0 || len(rrHeart.Cells) >= len(rrAll.Cells) {
		t.Fatalf("rr?organ=heart has %d cells vs %d total", len(rrHeart.Cells), len(rrAll.Cells))
	}
	for _, c := range rrHeart.Cells {
		if c.Organ != "heart" {
			t.Fatalf("rr?organ=heart leaked %+v", c)
		}
	}
}

func TestParameterErrors(t *testing.T) {
	p, _ := testPublisher(t, 300, 5)
	h := NewHandler(p)
	cases := []struct {
		path string
		want int
	}{
		{"/api/top?k=-1", http.StatusBadRequest},
		{"/api/top?k=abc", http.StatusBadRequest},
		{"/api/top?j=3", http.StatusBadRequest},
		{"/api/states?state=ZZ", http.StatusNotFound},
		{"/api/states?state=", http.StatusBadRequest},
		{"/api/organs?organ=spleen", http.StatusNotFound},
		{"/api/rr?organ=spleen", http.StatusNotFound},
		{"/api/rr?state=ZZ", http.StatusNotFound},
		{"/api/epoch?x=1", http.StatusBadRequest},
		{"/api/clusters?k=2", http.StatusBadRequest},
	}
	for _, c := range cases {
		if rec := get(t, h, c.path); rec.Code != c.want {
			t.Errorf("%s: status %d, want %d", c.path, rec.Code, c.want)
		}
	}
	// Errors are never pinned into the render cache.
	if st := p.Stats(); st.CacheSize != 0 {
		t.Errorf("cache size %d after error-only traffic, want 0", st.CacheSize)
	}
}

func TestRenderCacheBounded(t *testing.T) {
	c := newRenderCache(2)
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("k=%d", i)
		body, _, err := c.do(epTop, key, func() ([]byte, error) {
			return []byte(key), nil
		})
		if err != nil || string(body) != key {
			t.Fatalf("do(%s) = %q, %v", key, body, err)
		}
	}
	if got := c.cached(); got != 2 {
		t.Fatalf("cache size %d, want bound 2", got)
	}
	// Overflow keys still render correctly, they are just not stored.
	if _, ok := c.get(epTop, "k=4"); ok {
		t.Fatal("over-bound key was cached")
	}
	if _, ok := c.get(epTop, "k=0"); !ok {
		t.Fatal("in-bound key was evicted")
	}
}

func TestSingleflightCoalescesStampede(t *testing.T) {
	c := newRenderCache(8)
	const readers = 16
	var executions atomic.Int32
	release := make(chan struct{})
	started := make(chan struct{})

	var wg sync.WaitGroup
	shared := make([]bool, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, sh, err := c.do(epTop, "k=7", func() ([]byte, error) {
				executions.Add(1)
				close(started)
				<-release
				return []byte("body"), nil
			})
			if err != nil || string(body) != "body" {
				t.Errorf("reader %d: %q, %v", i, body, err)
			}
			shared[i] = sh
		}(i)
	}
	<-started
	// All other readers are either queued on the flight or yet to arrive;
	// give them a moment to pile up, then release the one render.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()

	if got := executions.Load(); got != 1 {
		t.Fatalf("render executed %d times for %d concurrent readers", got, readers)
	}
	nonShared := 0
	for _, sh := range shared {
		if !sh {
			nonShared++
		}
	}
	if nonShared != 1 {
		t.Fatalf("%d readers claim the non-shared render, want exactly 1", nonShared)
	}
}

func TestDrainLifecycle(t *testing.T) {
	p, _ := testPublisher(t, 200, 6)
	h := NewHandler(p)

	// A request that is past the drain check completes even though drain
	// begins mid-flight, and a request arriving after gets 503.
	var lateCode int
	h.testHook = func() {
		p.BeginDrain()
		late := NewHandler(p) // no hook: plain handler over the same publisher
		rec := get(t, late, "/api/stats")
		lateCode = rec.Code
		if ra := rec.Header().Get("Retry-After"); ra == "" {
			t.Error("503 without Retry-After")
		}
	}
	rec := get(t, h, "/api/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("in-flight request during drain: status %d, want 200", rec.Code)
	}
	if lateCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain request: status %d, want 503", lateCode)
	}
}

// nullResponseWriter is a reusable ResponseWriter whose header map
// persists across requests, so AllocsPerRun measures only the handler.
type nullResponseWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *nullResponseWriter) Header() http.Header { return w.h }
func (w *nullResponseWriter) Write(b []byte) (int, error) {
	w.n += len(b)
	return len(b), nil
}
func (w *nullResponseWriter) WriteHeader(code int) { w.status = code }

func TestHotPathZeroAllocs(t *testing.T) {
	p, snap := testPublisher(t, 500, 8)
	h := NewHandler(p)
	h.SetMetrics(NewMetrics(obs.NewRegistry(), p))

	w := &nullResponseWriter{h: make(http.Header)}
	req := httptest.NewRequest(http.MethodGet, "/api/stats", nil)
	h.ServeHTTP(w, req) // warm the header map
	if allocs := testing.AllocsPerRun(200, func() {
		w.n, w.status = 0, 0
		h.ServeHTTP(w, req)
	}); allocs != 0 {
		t.Errorf("cached-hit path: %.2f allocs/op, want 0", allocs)
	}

	req304 := httptest.NewRequest(http.MethodGet, "/api/stats", nil)
	req304.Header.Set("If-None-Match", snap.ETag())
	h.ServeHTTP(w, req304)
	if allocs := testing.AllocsPerRun(200, func() {
		w.n, w.status = 0, 0
		h.ServeHTTP(w, req304)
	}); allocs != 0 {
		t.Errorf("If-None-Match path: %.2f allocs/op, want 0", allocs)
	}
	if w.status != http.StatusNotModified || w.n != 0 {
		t.Errorf("304 path wrote status %d with %d bytes", w.status, w.n)
	}
}
