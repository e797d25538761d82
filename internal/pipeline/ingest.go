package pipeline

import (
	"context"
	"runtime"
	"sync"
	"time"

	"donorsense/internal/geo"
	"donorsense/internal/text"
	"donorsense/internal/twitter"
)

// Every ingest path runs one two-step kernel per tweet. prepare is the
// pure half of the paper's §III-A step — extract the Context × Subject
// match, then locate the in-context tweet's user — and may run on any
// goroutine. fold applies a prepared tweet to the dataset and runs only
// on the goroutine that owns it. Process is the kernel on one tweet;
// ProcessAll and CollectParallel run it through one chunked loop:
// prepare goroutines fill fixed-size, sequence-numbered chunks, and the
// caller's goroutine folds finished chunks strictly in input order. The
// dataset therefore ends bit-identical to Process over the same sequence
// whatever the worker count (one worker is one prepare goroutine), and
// memory stays O(workers · chunk) instead of O(input).

// ingestChunkSize is how many tweets one worker prepares per chunk: big
// enough to amortize channel handoffs, small enough that a handful of
// in-flight chunks fit comfortably in cache.
const ingestChunkSize = 256

// prepared carries the precomputed expensive parts of one tweet.
type prepared struct {
	ex        text.Extraction
	loc       geo.Location
	viaGeoTag bool
	// dExtract/dLocate are the stage timings, measured only when metrics
	// are attached (zero otherwise).
	dExtract time.Duration
	dLocate  time.Duration
}

// outcome is what folding the prepared tweet will do with it.
func (p *prepared) outcome() Outcome {
	switch {
	case !p.ex.InContext():
		return Rejected
	case !p.loc.IsUSState():
		return CollectedNonUS
	}
	return CollectedUS
}

// prepare runs the pure stages over one tweet with the caller's
// extractor scratch. Location work is skipped for out-of-context tweets.
// The geocoder, sharded cache and metric counters it touches are safe to
// share between goroutines.
func (d *Dataset) prepare(ex *text.Extractor, t *twitter.Tweet) prepared {
	var p prepared
	timed := d.metrics != nil
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	sp := d.tracer.StartChild("ingest.extract", t.TraceCtx)
	p.ex = ex.Extract(t.Text)
	sp.End()
	if timed {
		p.dExtract = time.Since(t0)
	}
	if !p.ex.InContext() {
		return p
	}
	if timed {
		t0 = time.Now()
	}
	sp = d.tracer.StartChild("ingest.locate", t.TraceCtx)
	p.loc, p.viaGeoTag = d.locate(t)
	if sp != nil {
		sp.SetAttr("resolved", p.loc.String())
		sp.End()
	}
	if timed {
		p.dLocate = time.Since(t0)
	}
	return p
}

// fold applies a prepared tweet to the dataset state and records it on
// the attached metrics. The size gauges are left to the caller, which
// refreshes them once per folded batch.
func (d *Dataset) fold(t *twitter.Tweet, p *prepared) Outcome {
	o := p.outcome()
	if m := d.metrics; m != nil {
		m.observe(o, p, t.HasCoordinates, t.TraceCtx)
	}
	if o == Rejected {
		return o
	}
	fsp := d.tracer.StartChild("ingest.fold", t.TraceCtx)
	d.totalCollected++
	if o == CollectedUS {
		d.usTweets++
		if p.viaGeoTag {
			d.geoTagged++
		}
		if d.firstTweet.IsZero() || t.CreatedAt.Before(d.firstTweet) {
			d.firstTweet = t.CreatedAt
		}
		if t.CreatedAt.After(d.lastTweet) {
			d.lastTweet = t.CreatedAt
		}
		d.foldUSTweet(*t, p.ex, p.loc.StateCode, p.viaGeoTag)
	}
	d.endFold(fsp, t.TraceCtx, o)
	return o
}

// Process runs one tweet through collect → augment → filter and folds it
// into the dataset. It returns what happened to the tweet.
func (d *Dataset) Process(t twitter.Tweet) Outcome {
	p := d.prepare(d.extractor, &t)
	o := d.fold(&t, &p)
	if d.metrics != nil {
		d.metrics.updateSizes(d)
	}
	return o
}

// ingestChunk is one unit of work: a window of the input and a recycled
// buffer of prepared results, tagged with a sequence number so the
// folder can restore input order.
type ingestChunk struct {
	seq    int
	tweets []twitter.Tweet
	preps  []prepared
}

// foldLoop is the fold side of the one ingest loop. It runs on the
// caller's goroutine: it hands chunks to the prepare goroutines, folds
// finished chunks strictly in sequence order, and recycles their
// buffers. A fixed pool of buffers caps the chunks in flight, and thus
// memory, whatever the input size; out holds one slot per buffer so a
// prepare goroutine never blocks delivering.
type foldLoop struct {
	d         *Dataset
	in, out   chan ingestChunk
	free      chan ingestChunk
	preparers sync.WaitGroup
	pending   map[int]ingestChunk // finished chunks waiting for their turn
	seq, next int
	onFold    func(total int) bool
	stopped   bool
	total     int    // tweets folded
	outcomes  [3]int // tweets folded, by Outcome
}

// startFoldLoop launches the prepare goroutines (workers <= 0 means
// GOMAXPROCS). onFold, when set, runs after each folded chunk with the
// cumulative folded-tweet count; returning false stops the loop.
func (d *Dataset) startFoldLoop(workers int, onFold func(total int) bool) *foldLoop {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	inflight := workers + 2
	l := &foldLoop{
		d:       d,
		in:      make(chan ingestChunk, workers),
		out:     make(chan ingestChunk, inflight),
		free:    make(chan ingestChunk, inflight),
		pending: make(map[int]ingestChunk, inflight),
		onFold:  onFold,
	}
	for i := 0; i < inflight; i++ {
		l.free <- ingestChunk{preps: make([]prepared, 0, ingestChunkSize)}
	}
	for w := 0; w < workers; w++ {
		l.preparers.Add(1)
		go func() {
			defer l.preparers.Done()
			// The extractor is per-goroutine scratch.
			ex := text.NewExtractor()
			for c := range l.in {
				c.preps = c.preps[:0]
				for i := range c.tweets {
					c.preps = append(c.preps, d.prepare(ex, &c.tweets[i]))
				}
				l.out <- c
			}
		}()
	}
	return l
}

// receive takes one finished chunk and folds every chunk that is now
// next in sequence. Once stopped, finished chunks only accumulate in
// pending (bounded by the buffer pool) and are discarded.
func (l *foldLoop) receive(c ingestChunk) {
	l.pending[c.seq] = c
	for !l.stopped {
		cc, ok := l.pending[l.next]
		if !ok {
			return
		}
		delete(l.pending, l.next)
		l.next++
		l.foldChunk(cc)
		cc.tweets = cc.tweets[:0]
		l.free <- cc // recycled before onFold, so a stop leaves one buffer free
		if l.onFold != nil && !l.onFold(l.total) {
			l.stopped = true
		}
	}
}

// foldChunk folds one prepared chunk in input order and refreshes the
// size gauges once for the whole chunk.
func (l *foldLoop) foldChunk(c ingestChunk) {
	d := l.d
	for i := range c.tweets {
		l.outcomes[d.fold(&c.tweets[i], &c.preps[i])]++
	}
	l.total += len(c.tweets)
	if d.metrics != nil {
		d.metrics.updateSizes(d)
	}
}

// acquire returns an empty buffer for the next chunk. It folds finished
// chunks while it waits: the folder is this goroutine, so servicing out
// here is what keeps the workers moving when every buffer is in flight.
func (l *foldLoop) acquire() ingestChunk {
	for {
		select {
		case c := <-l.free:
			return c
		case done := <-l.out:
			l.receive(done)
		}
	}
}

// send hands a filled buffer to the prepare goroutines, folding finished
// chunks while it waits.
func (l *foldLoop) send(c ingestChunk) {
	c.seq = l.seq
	l.seq++
	for {
		select {
		case l.in <- c:
			return
		case done := <-l.out:
			l.receive(done)
		}
	}
}

// finish closes the input, waits for the prepare goroutines, and folds
// whatever is still in flight (unless the loop was stopped).
func (l *foldLoop) finish() {
	close(l.in)
	go func() { l.preparers.Wait(); close(l.out) }()
	for c := range l.out {
		l.receive(c)
	}
}

// ProcessAll runs the corpus through the dataset using the given number
// of workers for extraction and geocoding (0 means GOMAXPROCS). It
// returns the per-outcome counts. The dataset must not be used
// concurrently with this call. The resulting dataset state is identical
// to calling Process on every tweet in order.
func (d *Dataset) ProcessAll(tweets []twitter.Tweet, workers int) (rejected, nonUS, us int) {
	l := d.startFoldLoop(workers, nil)
	for lo := 0; lo < len(tweets); lo += ingestChunkSize {
		c := l.acquire()
		c.tweets = tweets[lo:min(lo+ingestChunkSize, len(tweets))]
		l.send(c)
	}
	l.finish()
	return l.outcomes[Rejected], l.outcomes[CollectedNonUS], l.outcomes[CollectedUS]
}

// CollectOptions configures CollectParallel.
type CollectOptions struct {
	// Workers is the number of extract/geocode goroutines (0 =
	// GOMAXPROCS). Any value folds the same dataset.
	Workers int
	// OnFold, when set, runs after each folded chunk with the cumulative
	// folded-tweet count; returning false stops collection early. The
	// stop lands on a chunk boundary, so somewhat more tweets than the
	// caller's threshold may already be folded when it fires.
	OnFold func(total int) bool
	// Ticks, when set, is observed between chunks; each tick invokes
	// OnTick with the cumulative count. OnFold and OnTick both run on
	// the calling goroutine, so reading the dataset from them is safe.
	Ticks  <-chan time.Time
	OnTick func(total int)
}

// CollectParallel drains tweets from the channel into the dataset until
// the channel closes, the context is cancelled, or OnFold stops it.
// Arrivals are batched into chunks for the prepare goroutines and folded
// in arrival order, so the dataset ends bit-identical to Process over
// the same delivery sequence. A partial chunk is flushed whenever the
// stream has no tweet immediately ready, so a slow stream never strands
// tweets in the batch buffer. It returns the number of tweets folded.
func (d *Dataset) CollectParallel(ctx context.Context, tweets <-chan twitter.Tweet, opts CollectOptions) int {
	l := d.startFoldLoop(opts.Workers, opts.OnFold)
	cur := l.acquire()
	// add appends one arrival to the batch, dispatching it when full.
	add := func(t twitter.Tweet) {
		if cur.tweets == nil {
			cur.tweets = make([]twitter.Tweet, 0, ingestChunkSize)
		}
		cur.tweets = append(cur.tweets, t)
		if len(cur.tweets) == ingestChunkSize {
			l.send(cur)
			cur = l.acquire()
		}
	}
loop:
	for !l.stopped {
		if len(cur.tweets) > 0 {
			// A partial batch is in hand: take more input only when it
			// is immediately available, otherwise flush it.
			select {
			case t, ok := <-tweets:
				if !ok {
					break loop
				}
				add(t)
			default:
				l.send(cur)
				cur = l.acquire()
			}
			continue
		}
		select {
		case <-ctx.Done():
			break loop
		case t, ok := <-tweets:
			if !ok {
				break loop
			}
			add(t)
		case done := <-l.out:
			l.receive(done)
		case <-opts.Ticks:
			if opts.OnTick != nil {
				opts.OnTick(l.total)
			}
		}
	}
	// Flush the tail batch, then fold whatever is still in flight
	// (unless a stop discarded the suffix).
	if !l.stopped && len(cur.tweets) > 0 {
		l.send(cur)
	}
	l.finish()
	return l.total
}
