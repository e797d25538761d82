package obs

import (
	"context"
	"encoding/json"
	"expvar"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"donorsense/internal/obs/trace"
)

// Server is the collector's telemetry endpoint:
//
//	/metrics       Prometheus text exposition of the registry
//	/healthz       JSON health summary (registered checks + uptime + build)
//	/statusz       one-page live status (text; ?format=json)
//	/debug/traces  sampled span waterfalls (when a trace ring is attached)
//	/debug/pprof/  the standard profiling handlers
//	/debug/vars    expvar, including a flattened view of the registry
//
// It is deliberately separate from any data-serving listener so operators
// can firewall it independently.
type Server struct {
	reg   *Registry
	start time.Time

	mu         sync.RWMutex
	checks     map[string]HealthCheck
	status     []statusEntry
	onShutdown []func()

	traceRing atomic.Pointer[trace.Ring]
	queryAPI  atomic.Pointer[apiHolder]

	// requests counts handled requests by normalized path; scrapes and
	// served feed the final "telemetry server stopped" log line so a
	// run's exit record says how observed the run actually was.
	// apiRequests is the "/api" series resolved once at construction so
	// the query-API hot path never touches the vec's family lock.
	requests    *CounterVec
	apiRequests *Counter
	scrapes     atomic.Int64
	served      atomic.Int64
}

// apiHolder wraps the attached query-API handler so it can live behind
// one atomic pointer (mirroring the trace-ring attach pattern).
type apiHolder struct{ h http.Handler }

// HealthCheck reports one component's health: a JSON-serializable detail
// value and an error when the component is unhealthy.
type HealthCheck func() (detail any, err error)

// NewServer returns a telemetry server over the registry.
func NewServer(reg *Registry) *Server {
	s := &Server{reg: reg, start: time.Now(), checks: make(map[string]HealthCheck)}
	s.requests = reg.CounterVec("donorsense_telemetry_requests_total",
		"Telemetry HTTP requests handled, by normalized path.", "path")
	s.apiRequests = s.requests.With("/api")
	bridgeExpvar(reg)
	return s
}

// AddHealthCheck registers (or replaces) a named component check consulted
// by /healthz.
func (s *Server) AddHealthCheck(name string, fn HealthCheck) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.checks[name] = fn
}

// SetTraceRing attaches the span ring served under /debug/traces. Until
// set (or when nil), the route answers 404.
func (s *Server) SetTraceRing(r *trace.Ring) { s.traceRing.Store(r) }

// SetQueryAPI attaches the handler served under /api/. Until set (or
// when set to nil), the route answers 404 — the same gating /debug/traces
// uses, so a mux whose snapshot source has not started yet degrades to a
// clean "not enabled" instead of a nil-handler panic.
func (s *Server) SetQueryAPI(h http.Handler) {
	if h == nil {
		s.queryAPI.Store(nil)
		return
	}
	s.queryAPI.Store(&apiHolder{h: h})
}

// OnShutdown registers a hook run when Start's server begins its graceful
// shutdown, before in-flight requests are drained — the place a query API
// flips into 503-with-Retry-After drain mode.
func (s *Server) OnShutdown(fn func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onShutdown = append(s.onShutdown, fn)
}

// runShutdownHooks runs the registered shutdown hooks once, in
// registration order.
func (s *Server) runShutdownHooks() {
	s.mu.RLock()
	hooks := append([]func(){}, s.onShutdown...)
	s.mu.RUnlock()
	for _, fn := range hooks {
		fn()
	}
}

// Handler returns the telemetry mux wrapped in the access-log and
// request-counting middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", s.reg.Handler())
	mux.HandleFunc("/healthz", s.healthz)
	mux.HandleFunc("/statusz", s.statusz)
	mux.HandleFunc("/debug/traces", s.traces)
	mux.HandleFunc("/api/", s.api)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s.instrument(mux)
}

// api serves the attached query API, or 404 when none is attached.
func (s *Server) api(w http.ResponseWriter, r *http.Request) {
	qa := s.queryAPI.Load()
	if qa == nil {
		http.Error(w, "query API disabled (run with -serve)", http.StatusNotFound)
		return
	}
	qa.h.ServeHTTP(w, r)
}

// traces serves the attached span ring, or 404 when tracing is off.
func (s *Server) traces(w http.ResponseWriter, r *http.Request) {
	ring := s.traceRing.Load()
	if ring == nil {
		http.Error(w, "tracing disabled (run with -trace-sample > 0)", http.StatusNotFound)
		return
	}
	ring.Handler().ServeHTTP(w, r)
}

// telemetryPaths are the exact routes the requests-by-path counter keeps
// as distinct series; anything else collapses to "other" so an URL scan
// cannot explode label cardinality.
var telemetryPaths = map[string]bool{
	"/metrics": true, "/healthz": true, "/statusz": true,
	"/debug/traces": true, "/debug/vars": true,
}

// normalizePath maps a request path to its counter label.
func normalizePath(p string) string {
	if telemetryPaths[p] {
		return p
	}
	if strings.HasPrefix(p, "/debug/pprof") {
		return "/debug/pprof"
	}
	if strings.HasPrefix(p, "/api/") {
		return "/api"
	}
	return "other"
}

// statusWriter captures the response status for the access log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps the mux with request counting and, when the process
// logger admits debug records (-log-level=debug), an access log line per
// request.
func (s *Server) instrument(next http.Handler) http.Handler {
	logger := Logger("telemetry")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		path := normalizePath(r.URL.Path)
		if path == "/api" {
			// Pre-resolved series: the query-API hot path skips the vec's
			// family lock entirely.
			s.apiRequests.Inc()
		} else {
			s.requests.With(path).Inc()
		}
		s.served.Add(1)
		if path == "/metrics" {
			s.scrapes.Add(1)
		}
		if !logger.Enabled(r.Context(), slog.LevelDebug) {
			next.ServeHTTP(w, r)
			return
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r)
		logger.Debug("http request",
			"method", r.Method, "path", r.URL.Path,
			"status", sw.status, "duration", time.Since(start).String())
	})
}

// healthState is the /healthz response body.
type healthState struct {
	Status        string            `json:"status"` // "ok" or "degraded"
	UptimeSeconds float64           `json:"uptime_seconds"`
	Build         BuildInfo         `json:"build"`
	Checks        map[string]any    `json:"checks,omitempty"`
	Errors        map[string]string `json:"errors,omitempty"`
}

func (s *Server) healthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	checks := make(map[string]HealthCheck, len(s.checks))
	for name, fn := range s.checks {
		checks[name] = fn
	}
	s.mu.RUnlock()

	st := healthState{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
		Build:         ReadBuild(),
		Checks:        make(map[string]any, len(checks)),
	}
	for name, fn := range checks {
		detail, err := fn()
		st.Checks[name] = detail
		if err != nil {
			if st.Errors == nil {
				st.Errors = make(map[string]string)
			}
			st.Errors[name] = err.Error()
			st.Status = "degraded"
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if st.Status != "ok" {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(st)
}

// Start serves the telemetry endpoint on addr in the background until ctx
// is done: the one telemetry start of every long-running command. The
// returned channel yields Serve's result once the server has shut down.
func (s *Server) Start(ctx context.Context, addr string) <-chan error {
	logger := Logger("telemetry")
	done := make(chan error, 1)
	go func() {
		logger.Info("telemetry listening", "addr", addr)
		// Flip drain-mode consumers (query API) to 503 first, then let
		// Shutdown finish the requests already in flight.
		err := Serve(ctx, addr, s.Handler(), s.runShutdownHooks)
		if err != nil {
			logger.Error("telemetry server failed", "err", err)
		} else {
			logger.Info("telemetry server stopped",
				"uptime", time.Since(s.start).Round(time.Second).String(),
				"scrapes", s.scrapes.Load(), "requests", s.served.Load())
		}
		done <- err
	}()
	return done
}

// SignalContext returns a context that SIGINT or SIGTERM cancels: the stop
// signals of every long-running command, so a Ctrl-C and a container stop
// both end it gracefully.
func SignalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// Serve serves h on addr until ctx is done, then shuts down gracefully:
// beforeShutdown (when set) runs first, request contexts are cancelled so
// long-lived streams end, and the requests in flight get a 2s deadline
// to finish. A clean shutdown returns nil.
func Serve(ctx context.Context, addr string, h http.Handler, beforeShutdown func()) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	reqCtx, cancelRequests := context.WithCancel(context.Background())
	defer cancelRequests()
	srv := &http.Server{Handler: h, BaseContext: func(net.Listener) context.Context { return reqCtx }}
	done := make(chan struct{})
	stop := context.AfterFunc(ctx, func() {
		defer close(done)
		if beforeShutdown != nil {
			beforeShutdown()
		}
		cancelRequests()
		shCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(shCtx)
	})
	defer stop()
	if err = srv.Serve(ln); err != http.ErrServerClosed {
		return err
	}
	<-done
	return nil
}

// bridgedRegistry is the registry currently published under the
// "donorsense_metrics" expvar; expvar.Publish is global and forbids
// re-publishing, so the Func closure indirects through this pointer.
var (
	bridgeOnce      sync.Once
	bridgedRegistry atomic.Pointer[Registry]
)

// bridgeExpvar publishes the registry as the "donorsense_metrics" expvar.
// The latest bridged registry wins, matching the one-telemetry-server-
// per-process deployment.
func bridgeExpvar(reg *Registry) {
	bridgedRegistry.Store(reg)
	bridgeOnce.Do(func() {
		expvar.Publish("donorsense_metrics", expvar.Func(func() any {
			r := bridgedRegistry.Load()
			if r == nil {
				return nil
			}
			return r.Export()
		}))
	})
}
