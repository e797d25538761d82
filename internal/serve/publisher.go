package serve

import (
	"sync/atomic"
	"time"

	"donorsense/internal/report"
)

// Publisher owns the RCU snapshot pointer. One goroutine (the collect
// loop, right after Engine.Refresh) calls Publish; any number of request
// goroutines call Current. Readers that loaded the previous snapshot
// keep serving it untouched — there is no reclamation to coordinate
// because snapshots are garbage-collected when the last reader drops
// its pointer.
type Publisher struct {
	cur atomic.Pointer[Snapshot]
	seq atomic.Uint64

	// draining flips once at shutdown: new requests get 503+Retry-After
	// while the server's Shutdown finishes the ones in flight.
	draining atomic.Bool

	// Request-outcome tallies, owned here (not in obs) so the handler
	// works lock-free even with no registry attached.
	hits        atomic.Uint64 // 200 from a pre-rendered or cached body
	notModified atomic.Uint64 // 304 header-only answers
	renders     atomic.Uint64 // cold parameterized renders executed
	coalesced   atomic.Uint64 // requests that piggybacked on another render
	badRequest  atomic.Uint64 // 400s
	notFound    atomic.Uint64 // 404s (no snapshot, unknown route/key)
	rejected    atomic.Uint64 // 503s during drain

	lastPublishUnixNano atomic.Int64
}

// NewPublisher returns an empty publisher; until the first Publish every
// request answers 404.
func NewPublisher() *Publisher { return &Publisher{} }

// Publish builds an immutable snapshot from the analysis and swaps it
// in. It must run where the analysis is quiescent — on the goroutine
// that just completed Engine.Refresh — because the build deep-copies
// data the next refresh will mutate in place.
func (p *Publisher) Publish(a *report.Analysis, meta Meta) (*Snapshot, error) {
	snap, err := BuildSnapshot(a, meta, p.seq.Add(1))
	if err != nil {
		return nil, err
	}
	p.cur.Store(snap)
	p.lastPublishUnixNano.Store(time.Now().UnixNano())
	return snap, nil
}

// Current returns the live snapshot, or nil before the first Publish.
func (p *Publisher) Current() *Snapshot { return p.cur.Load() }

// Epoch returns the epoch currently served (0 before the first Publish).
func (p *Publisher) Epoch() uint64 {
	if s := p.cur.Load(); s != nil {
		return s.Epoch
	}
	return 0
}

// Seq returns the publish sequence number (0 before the first Publish).
func (p *Publisher) Seq() uint64 { return p.seq.Load() }

// CacheSize returns the current snapshot's cached-render count.
func (p *Publisher) CacheSize() int {
	if s := p.cur.Load(); s != nil {
		return s.cache.cached()
	}
	return 0
}

// BeginDrain flips the publisher into drain mode: every request from
// here on answers 503 with Retry-After. Safe to call more than once.
func (p *Publisher) BeginDrain() { p.draining.Store(true) }

// Stats is a point-in-time copy of the request tallies for /statusz.
type Stats struct {
	Seq         uint64
	Epoch       uint64
	Hits        uint64
	NotModified uint64
	Renders     uint64
	Coalesced   uint64
	BadRequest  uint64
	NotFound    uint64
	Rejected    uint64
	CacheSize   int
	Draining    bool
	LastPublish time.Time // zero before the first Publish
}

// Misses is the cold-path total: renders plus coalesced waiters.
func (s Stats) Misses() uint64 { return s.Renders + s.Coalesced }

// Stats snapshots the counters.
func (p *Publisher) Stats() Stats {
	st := Stats{
		Seq:         p.seq.Load(),
		Epoch:       p.Epoch(),
		Hits:        p.hits.Load(),
		NotModified: p.notModified.Load(),
		Renders:     p.renders.Load(),
		Coalesced:   p.coalesced.Load(),
		BadRequest:  p.badRequest.Load(),
		NotFound:    p.notFound.Load(),
		Rejected:    p.rejected.Load(),
		CacheSize:   p.CacheSize(),
		Draining:    p.draining.Load(),
	}
	if ns := p.lastPublishUnixNano.Load(); ns != 0 {
		st.LastPublish = time.Unix(0, ns)
	}
	return st
}
