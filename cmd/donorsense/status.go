// /statusz sections and /healthz checks of the collect telemetry server.
// They run on every request from the telemetry goroutine, so they may
// only read concurrency-safe state: atomics, snapshots, and the
// filesystem.
package main

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"donorsense/internal/obs"
	"donorsense/internal/obs/trace"
	"donorsense/internal/serve"
	"donorsense/internal/twitter"
)

// mountQueryAPI serves pub's snapshots as /api/... on srv, with the
// serve metrics and /statusz section. On shutdown the server flips the
// publisher into drain mode first (new requests 503+Retry-After), then
// Shutdown finishes the reads already in flight.
func mountQueryAPI(srv *obs.Server, reg *obs.Registry, pub *serve.Publisher) {
	handler := serve.NewHandler(pub)
	handler.SetMetrics(serve.NewMetrics(reg, pub))
	srv.SetQueryAPI(handler)
	srv.OnShutdown(pub.BeginDrain)
	srv.AddStatus("serve", serveStatus(pub))
}

// serveStatus reports the query-API publisher: what epoch readers see
// and how traffic split across the hit/miss/304 paths.
func serveStatus(p *serve.Publisher) func() obs.StatusSection {
	return func() obs.StatusSection {
		var sec obs.StatusSection
		st := p.Stats()
		sec.Field("enabled", true)
		sec.Field("epoch", st.Epoch)
		sec.Field("seq", st.Seq)
		if st.LastPublish.IsZero() {
			sec.Field("published", "never this run")
		} else {
			sec.Field("published", time.Since(st.LastPublish).Round(time.Second).String()+" ago")
		}
		sec.Field("hits", st.Hits)
		sec.Field("not_modified", st.NotModified)
		sec.Field("misses", st.Misses())
		sec.Field("renders", st.Renders)
		sec.Field("coalesced", st.Coalesced)
		sec.Field("cached_renders", st.CacheSize)
		sec.Field("bad_request", st.BadRequest)
		sec.Field("not_found", st.NotFound)
		sec.Field("rejected_503", st.Rejected)
		sec.Field("draining", st.Draining)
		return sec
	}
}

// checkpointStatus reports checkpoint freshness and on-disk size.
// lastSave holds the UnixNano of the last successful save (0 = never).
func checkpointStatus(path string, lastSave *atomic.Int64) func() obs.StatusSection {
	return func() obs.StatusSection {
		var sec obs.StatusSection
		if path == "" {
			sec.Field("enabled", false)
			return sec
		}
		sec.Field("enabled", true)
		sec.Field("path", path)
		if last := lastSave.Load(); last > 0 {
			sec.Field("age", time.Since(time.Unix(0, last)).Round(time.Second).String())
		} else {
			sec.Field("age", "never saved this run")
		}
		if fi, err := os.Stat(path); err == nil {
			sec.Field("size_bytes", fi.Size())
		}
		return sec
	}
}

// tracingStatus reports the sampler configuration and ring fill.
func tracingStatus(tracer *trace.Tracer) func() obs.StatusSection {
	return func() obs.StatusSection {
		var sec obs.StatusSection
		if tracer == nil {
			sec.Field("enabled", false)
			return sec
		}
		ring := tracer.Ring()
		sec.Field("enabled", true)
		sec.Field("sample_rate", fmt.Sprintf("%g", tracer.SampleRate()))
		sec.Field("ring_capacity", ring.Cap())
		sec.Field("spans_recorded", ring.Total())
		return sec
	}
}

// streamStatus reports the stream client's connection and delivery
// counters.
func streamStatus(client *twitter.StreamClient, m *twitter.StreamMetrics, started time.Time) func() obs.StatusSection {
	return func() obs.StatusSection {
		st := client.Snapshot()
		var sec obs.StatusSection
		sec.Field("connected", m.Connected())
		sec.Field("tweets", st.Tweets)
		sec.Field("tweets_per_sec", fmt.Sprintf("%.1f", float64(st.Tweets)/time.Since(started).Seconds()))
		sec.Field("connects", st.Connects)
		sec.Field("retries", st.Retries)
		sec.Field("stalls", st.Stalls)
		sec.Field("rate_limits", st.RateLimits)
		sec.Field("malformed_lines", st.MalformedLines)
		return sec
	}
}

// streamHealth fails while a stream that has connected before is down.
func streamHealth(client *twitter.StreamClient, m *twitter.StreamMetrics) obs.HealthCheck {
	return func() (any, error) {
		st := client.Snapshot()
		detail := map[string]any{
			"connected":   m.Connected(),
			"connects":    st.Connects,
			"retries":     st.Retries,
			"stalls":      st.Stalls,
			"rate_limits": st.RateLimits,
			"tweets":      st.Tweets,
		}
		if st.Connects > 0 && !m.Connected() {
			return detail, fmt.Errorf("stream disconnected (reconnecting)")
		}
		return detail, nil
	}
}

// checkpointHealth fails when no checkpoint was saved for five
// checkpoint intervals. lastSave holds the UnixNano of the last
// successful save (0 = never); before the first, the age runs from
// started.
func checkpointHealth(path string, every time.Duration, started time.Time, lastSave *atomic.Int64) obs.HealthCheck {
	return func() (any, error) {
		if path == "" {
			return map[string]any{"enabled": false}, nil
		}
		last := lastSave.Load()
		detail := map[string]any{"enabled": true, "path": path}
		var age time.Duration
		if last == 0 {
			age = time.Since(started)
			detail["age_seconds"] = nil // no save yet this run
		} else {
			age = time.Since(time.Unix(0, last))
			detail["age_seconds"] = age.Seconds()
		}
		if age > 5*every {
			return detail, fmt.Errorf("checkpoint stale: last save %s ago", age.Round(time.Second))
		}
		return detail, nil
	}
}
