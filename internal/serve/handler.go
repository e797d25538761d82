package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"donorsense/internal/geo"
	"donorsense/internal/organ"
)

// Preallocated header values, assigned directly into the header map
// under their canonical keys so the hot path never calls Header().Set
// (which canonicalizes and allocates a fresh []string per request).
// Handlers only read these shared slices.
var (
	contentTypeHdr  = []string{"application/json; charset=utf-8"}
	cacheControlHdr = []string{"no-cache"}
	retryAfterHdr   = []string{"1"}
)

// Handler is the query-API HTTP handler. The unparameterized hot path
// is: one atomic snapshot load, an array-indexed body
// lookup, an ETag compare, and a single Write — zero heap allocations
// and zero lock acquisitions. Everything slower (parameterized renders,
// error bodies) happens on explicitly cold paths.
type Handler struct {
	p *Publisher
	m *Metrics

	// testHook, when set, runs after the snapshot pointer load and
	// before the response is written — a seam for deterministic drain
	// and publish-race tests. Never set in production.
	testHook func()
}

// NewHandler returns a handler over the publisher's snapshots.
func NewHandler(p *Publisher) *Handler { return &Handler{p: p} }

// SetMetrics attaches pre-resolved obs counters. Call before serving;
// the handler works (counting only its own atomics) without one.
func (h *Handler) SetMetrics(m *Metrics) { h.m = m }

func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p := h.p

	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}

	if p.draining.Load() {
		// Drain mode: constant-time rejection so http.Server.Shutdown's
		// in-flight accounting empties quickly while keep-alive clients
		// learn to back off.
		p.rejected.Add(1)
		if m := h.m; m != nil {
			m.rejected.Inc()
		}
		hdr := w.Header()
		hdr["Retry-After"] = retryAfterHdr
		w.WriteHeader(http.StatusServiceUnavailable)
		return
	}
	snap := p.cur.Load()
	if h.testHook != nil {
		// Runs after the drain check and snapshot load, before the write:
		// the deterministic seam for drain and publish-race tests.
		h.testHook()
	}
	if snap == nil {
		p.notFound.Add(1)
		if m := h.m; m != nil {
			m.notFound.Inc()
		}
		http.Error(w, "no snapshot published yet", http.StatusNotFound)
		return
	}
	ep := endpointOf(r.URL.Path)
	if ep < 0 {
		p.notFound.Add(1)
		if m := h.m; m != nil {
			m.notFound.Inc()
		}
		http.Error(w, "unknown endpoint (see /api/ for the index)", http.StatusNotFound)
		return
	}
	if r.URL.RawQuery == "" {
		h.reply(w, r, snap, ep, snap.fixed[ep])
		return
	}
	h.serveParam(w, r, snap, ep)
}

// reply writes body (or a 304) with the snapshot's ETag. This is the
// terminal step of every 200/304 response, hot or cold.
func (h *Handler) reply(w http.ResponseWriter, r *http.Request, snap *Snapshot, ep endpoint, body []byte) {
	hdr := w.Header()
	hdr["Etag"] = snap.etagHdr
	hdr["Cache-Control"] = cacheControlHdr
	if inm := r.Header.Get("If-None-Match"); inm != "" && inm == snap.etag {
		h.p.notModified.Add(1)
		if m := h.m; m != nil {
			m.notModified[ep].Inc()
		}
		w.WriteHeader(http.StatusNotModified)
		return
	}
	hdr["Content-Type"] = contentTypeHdr
	h.p.hits.Add(1)
	if m := h.m; m != nil {
		m.hit[ep].Inc()
	}
	_, _ = w.Write(body)
}

// serveParam answers a parameterized request: cached-body fast path,
// then a singleflight-coalesced render into the snapshot's bounded
// cache.
func (h *Handler) serveParam(w http.ResponseWriter, r *http.Request, snap *Snapshot, ep endpoint) {
	raw := r.URL.RawQuery
	if body, ok := snap.cache.get(ep, raw); ok {
		h.reply(w, r, snap, ep, body)
		return
	}

	start := time.Now()
	body, shared, err := snap.cache.do(ep, raw, func() ([]byte, error) {
		return snap.renderParam(ep, raw)
	})
	if err != nil {
		status, msg := http.StatusBadRequest, err.Error()
		var ae *apiError
		if asAPIError(err, &ae) {
			status = ae.status
		}
		switch status {
		case http.StatusNotFound:
			h.p.notFound.Add(1)
			if m := h.m; m != nil {
				m.notFound.Inc()
			}
		default:
			h.p.badRequest.Add(1)
			if m := h.m; m != nil {
				m.badRequest.Inc()
			}
		}
		http.Error(w, msg, status)
		return
	}
	if shared {
		h.p.coalesced.Add(1)
		if m := h.m; m != nil {
			m.coalesced.Inc()
		}
	} else {
		h.p.renders.Add(1)
		if m := h.m; m != nil {
			m.render[ep].Inc()
			m.renderSeconds.Since(start)
		}
	}
	h.reply(w, r, snap, ep, body)
}

// apiError is a render failure with an HTTP status; anything else
// defaults to 400.
type apiError struct {
	status int
	msg    string
}

func (e *apiError) Error() string { return e.msg }

// asAPIError is errors.As specialized to *apiError without reflection;
// render errors are never wrapped.
func asAPIError(err error, target **apiError) bool {
	ae, ok := err.(*apiError)
	if ok {
		*target = ae
	}
	return ok
}

func badParam(format string, args ...any) error {
	return &apiError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

func notFoundParam(format string, args ...any) error {
	return &apiError{status: http.StatusNotFound, msg: fmt.Sprintf(format, args...)}
}

// renderParam renders a parameterized document. Runs at most once per
// (snapshot, raw query) thanks to the singleflight cache; correctness,
// not allocation count, is the concern here.
func (s *Snapshot) renderParam(ep endpoint, raw string) ([]byte, error) {
	q, err := url.ParseQuery(raw)
	if err != nil {
		return nil, badParam("malformed query: %v", err)
	}
	allowed, ok := endpointParams[ep]
	if !ok {
		return nil, badParam("endpoint %s takes no parameters", endpointPaths[ep])
	}
	for key := range q {
		if !strings.Contains(allowed, ","+key+",") {
			return nil, badParam("unknown parameter %q (allowed: %s)", key, strings.Trim(allowed, ","))
		}
	}

	var doc any
	switch ep {
	case epStates:
		code := normalizeState(q.Get("state"))
		if code == "" {
			return nil, badParam("state parameter is empty")
		}
		sd := s.stateByCode(code)
		if sd == nil {
			if geo.StateIndex(code) < 0 {
				return nil, notFoundParam("unknown state %q", code)
			}
			return nil, notFoundParam("state %q has no users in this snapshot", code)
		}
		doc = stateDetailJSON{
			docMeta:   s.meta(),
			stateJSON: sd.toJSON(),
			RR:        sd.rrCells(-1, true),
		}
	case epOrgans:
		o, ok := organ.Parse(q.Get("organ"))
		if !ok {
			return nil, notFoundParam("unknown organ %q (one of %s)",
				q.Get("organ"), strings.Join(organ.Names(), ", "))
		}
		od := &s.organs[o.Index()]
		detail := organDetailJSON{
			docMeta: s.meta(),
			organJSON: organJSON{
				Organ: o.String(), Users: od.users,
				GroupSize: od.groupSize, Signature: sigMap(od.sig[:]),
			},
			StatesHighlighting: []string{},
		}
		for i := range s.states {
			if s.states[i].rr[o.Index()].significant {
				detail.StatesHighlighting = append(detail.StatesHighlighting, s.states[i].code)
			}
		}
		doc = detail
	case epRR:
		o := organ.Organ(-1)
		if v := q.Get("organ"); v != "" {
			var ok bool
			if o, ok = organ.Parse(v); !ok {
				return nil, notFoundParam("unknown organ %q", v)
			}
		}
		state := ""
		if v := q.Get("state"); v != "" {
			state = normalizeState(v)
			if geo.StateIndex(state) < 0 {
				return nil, notFoundParam("unknown state %q", state)
			}
		}
		doc = s.rrDoc(o, state)
	case epTop:
		k, err := strconv.Atoi(q.Get("k"))
		if err != nil || k < 0 {
			return nil, badParam("k must be a non-negative integer, got %q", q.Get("k"))
		}
		doc = s.topDoc(k)
	default:
		return nil, badParam("endpoint %s takes no parameters", endpointPaths[ep])
	}

	b, err := json.Marshal(doc)
	if err != nil {
		return nil, fmt.Errorf("render %s?%s: %w", endpointPaths[ep], raw, err)
	}
	return append(b, '\n'), nil
}

// endpointParams lists the accepted query keys per endpoint, comma-
// delimited with sentinels for exact-token matching.
var endpointParams = map[endpoint]string{
	epStates: ",state,",
	epOrgans: ",organ,",
	epRR:     ",state,organ,",
	epTop:    ",k,",
}
