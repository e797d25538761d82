package pipeline

import "donorsense/internal/obs/trace"

// Trace propagation through the pipeline rides the tweets themselves:
// the stream client stamps a sampled tweet's Tweet.TraceCtx, and every
// stage here — extract and locate on the workers, the in-order fold on
// the folder, the checkpoint save after it — parents a span onto that
// context. An unsampled tweet carries the zero context and each stage
// pays one nil/zero check, keeping the hot path allocation-free.

// SetTracer attaches a tracer to the dataset's processing stages. Nil
// (the default) disables span creation entirely. Call before processing
// starts; the tracer itself is safe for the parallel workers to share.
func (d *Dataset) SetTracer(t *trace.Tracer) { d.tracer = t }

// endFold finishes a fold span and remembers the folded tweet's trace so
// the next checkpoint save can parent onto it — extending the waterfall
// from stream read all the way into durability. Folding is
// single-threaded (the folder goroutine), so pendingTrace needs no lock.
func (d *Dataset) endFold(sp *trace.Span, ctx trace.SpanContext, o Outcome) {
	if ctx.Sampled() {
		d.pendingTrace = ctx
	}
	if sp != nil {
		sp.SetAttr("outcome", outcomeLabel(o))
		sp.End()
	}
}

// exemplarID renders a sampled context's trace ID for histogram
// exemplars; "" (no exemplar) when unsampled.
func exemplarID(tc trace.SpanContext) string {
	if !tc.Sampled() {
		return ""
	}
	return tc.TraceString()
}
