package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile of sorted (ascending) and
// the number of samples it was taken from. The value is always one of the
// samples, so a percentile can be decomposed into the parts of the one
// sample it names.
func quantile(sorted []float64, q float64) (v float64, n int) {
	n = len(sorted)
	if n == 0 {
		return 0, 0
	}
	return sorted[rankOf(n, q)], n
}

// rankOf is the 0-based nearest-rank index of the q-quantile of n samples.
func rankOf(n int, q float64) int {
	r := int(math.Ceil(q*float64(n))) - 1
	if r < 0 {
		r = 0
	}
	if r >= n {
		r = n - 1
	}
	return r
}

// supported reports whether the q-quantile of n samples has at least ten
// samples beyond it, the least that makes a tail percentile meaningful.
func supported(n int, q float64) bool {
	return n-1-rankOf(n, q) >= 10
}

// median is the middle of xs (the mean of the two middles for an even
// count). It sorts a copy.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// mark records that the first count tweets, in send order, had reached a
// stage by at (an offset from the run's origin). Marks arrive with
// non-decreasing counts: the collector folds tweets in delivery order,
// and delivery order is send order.
type mark struct {
	count int
	at    time.Duration
}

// expandMarks gives every tweet i < n the time of the first mark whose
// count exceeds i. It reports false when the marks cover fewer than n
// tweets.
func expandMarks(n int, marks []mark) ([]time.Duration, bool) {
	out := make([]time.Duration, n)
	i := 0
	for _, m := range marks {
		for ; i < n && i < m.count; i++ {
			out[i] = m.at
		}
	}
	return out, i == n
}

// cycle is one live refresh: the tweets folded when Refresh began, and
// the offsets at which Refresh began and ended, TopMentioners ended, and
// Publish ended.
type cycle struct {
	covered                             int
	start, refreshed, topped, published time.Duration
	dirty                               int
}

// Lag segments in path order. For each tweet they telescope from its
// scheduled send time to the end of the Publish that first exposed it,
// so they add up to its visible lag exactly.
const (
	segLateness = iota
	segTransit
	segIngest
	segRefreshWait
	segRefresh
	segTop
	segPublish
	numSegments
)

var segmentNames = [numSegments]string{
	"lateness", "transit", "ingest", "refresh_wait", "refresh", "top", "publish",
}

// tweetPath holds, per tweet in send order, the offset from the run's
// origin at which it was due, written by the generator, delivered on the
// client channel, and folded. sent and delivered may be nil (untraced
// runs record neither).
type tweetPath struct {
	due, sent, delivered, folded []time.Duration
}

// visibility assigns every tweet the first cycle that covered it. It
// reports false when some tweet was never covered.
func visibility(n int, cycles []cycle) ([]int, bool) {
	out := make([]int, n)
	i := 0
	for ci, c := range cycles {
		for ; i < n && i < c.covered; i++ {
			out[i] = ci
		}
	}
	return out, i == n
}

// visibleLags returns each tweet's lag, in milliseconds, from its due
// time to the end of the Publish of the cycle that first covered it.
func visibleLags(p tweetPath, cycles []cycle, vis []int) []float64 {
	out := make([]float64, len(p.due))
	for i := range out {
		out[i] = ms(cycles[vis[i]].published - p.due[i])
	}
	return out
}

// segments splits tweet i's visible lag into its path segments. Their sum
// equals the lag exactly, in integer nanoseconds.
func segments(p tweetPath, cycles []cycle, vis []int, i int) [numSegments]time.Duration {
	c := cycles[vis[i]]
	return [numSegments]time.Duration{
		segLateness:    p.sent[i] - p.due[i],
		segTransit:     p.delivered[i] - p.sent[i],
		segIngest:      p.folded[i] - p.delivered[i],
		segRefreshWait: c.start - p.folded[i],
		segRefresh:     c.refreshed - c.start,
		segTop:         c.topped - c.refreshed,
		segPublish:     c.published - c.topped,
	}
}

// rankedTweet returns the index of the tweet whose lag is the nearest-rank
// q-quantile of lags.
func rankedTweet(lags []float64, q float64) int {
	idx := make([]int, len(lags))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return lags[idx[a]] < lags[idx[b]] })
	return idx[rankOf(len(idx), q)]
}

// diffs returns b[i]-a[i] in milliseconds.
func diffs(a, b []time.Duration) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = ms(b[i] - a[i])
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// setQuantiles records the q-quantiles of samples as name.pNN.
func setQuantiles(r *result, name string, samples []float64, qs ...float64) {
	s := sortedCopy(samples)
	for _, q := range qs {
		v, _ := quantile(s, q)
		r.set(fmt.Sprintf("%s.p%02.0f", name, q*100), v)
	}
}
