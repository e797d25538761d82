package text

import (
	"donorsense/internal/organ"
)

// Extraction is the result of matching a tweet against the Figure 1
// keyword product. It is a pure value: context terms are carried as
// interned vocabulary IDs and organs as a bitmask, so an Extraction can
// be copied, buffered, and folded later without referencing any
// extractor scratch state.
type Extraction struct {
	// ctxTerms holds the IDs of the donation-context terms found, in
	// order of first appearance, deduplicated. ctxN is the count.
	ctxTerms [maxContextTerms]uint8
	ctxN     uint8
	// organs is the distinct-organ bitmask, bit i = organ with Index i.
	organs uint8
	// Mentions counts subject-form occurrences per organ (a tweet saying
	// "kidney" twice counts 2 for kidney).
	Mentions [organ.Count]int
	// ClinicalMentions counts subject occurrences using the clinical
	// variant (renal, hepatic, ...), a practitioner-language signal.
	ClinicalMentions int
	// Hashtags counts hashtag tokens in the tweet.
	Hashtags int
}

// InContext reports whether the tweet satisfies the collection predicate:
// at least one Context term and at least one Subject term (Figure 1).
func (e Extraction) InContext() bool {
	return e.ctxN > 0 && e.organs != 0
}

// ContextTerms returns the donation-context terms found, in order of
// first appearance, deduplicated. The strings are interned vocabulary
// terms; only the slice header is allocated, and nil is returned when no
// term matched. Hot paths should prefer NumContextTerms.
func (e Extraction) ContextTerms() []string {
	if e.ctxN == 0 {
		return nil
	}
	out := make([]string, e.ctxN)
	for i := range out {
		out[i] = vocab.terms[e.ctxTerms[i]]
	}
	return out
}

// NumContextTerms returns how many distinct context terms matched,
// without allocating.
func (e Extraction) NumContextTerms() int { return int(e.ctxN) }

// Organs returns the distinct organs mentioned, in canonical order, or
// nil when none matched. Hot paths should read the Mentions counts
// instead (organ o was mentioned iff Mentions[o.Index()] > 0), which does
// not allocate.
func (e Extraction) Organs() []organ.Organ {
	if e.organs == 0 {
		return nil
	}
	out := make([]organ.Organ, 0, organ.Count)
	for _, o := range organ.All() {
		if e.organs&(1<<uint(o.Index())) != 0 {
			out = append(out, o)
		}
	}
	return out
}

// NumOrgans returns how many distinct organs were mentioned.
func (e Extraction) NumOrgans() int {
	n := 0
	for b := e.organs; b != 0; b &= b - 1 {
		n++
	}
	return n
}

// TotalMentions returns the total number of organ-subject occurrences.
func (e Extraction) TotalMentions() int {
	n := 0
	for _, c := range e.Mentions {
		n += c
	}
	return n
}

// Extractor matches tweet text against the organ-donation keyword set.
// The keyword index itself is immutable and shared package-wide; an
// Extractor carries only reusable scratch buffers (token spans, lowered
// text, epoch-stamped seen marks), so Extract allocates nothing in the
// steady state. The scratch makes an Extractor NOT safe for concurrent
// use — construction is cheap, so give each goroutine its own.
type Extractor struct {
	spans []span
	lower []byte
	// seen[id] == epoch marks context term id as already emitted for the
	// current Extract call; bumping epoch resets all marks in O(1).
	seen  [maxContextTerms]uint32
	epoch uint32
}

// NewExtractor returns an Extractor backed by the canonical keyword
// vocabulary in package organ.
func NewExtractor() *Extractor { return &Extractor{} }

// Extract tokenizes the tweet text and returns its context terms and
// organ mentions.
func (e *Extractor) Extract(tweet string) Extraction {
	e.scan(tweet)
	e.epoch++
	if e.epoch == 0 { // uint32 wrap: clear stale marks, restart epochs
		e.seen = [maxContextTerms]uint32{}
		e.epoch = 1
	}
	var ex Extraction
	for i := range e.spans {
		sp := e.spans[i]
		if sp.hashtag {
			ex.Hashtags++
		}
		w := e.lower[sp.lo:sp.hi]
		if id, ok := vocab.unigram[string(w)]; ok && e.seen[id] != e.epoch {
			e.seen[id] = e.epoch
			ex.ctxTerms[ex.ctxN] = id
			ex.ctxN++
		}
		if rules, ok := vocab.bigrams[string(w)]; ok && i+1 < len(e.spans) {
			next := e.lower[e.spans[i+1].lo:e.spans[i+1].hi]
			for _, br := range rules {
				if br.second == string(next) {
					if e.seen[br.id] != e.epoch {
						e.seen[br.id] = e.epoch
						ex.ctxTerms[ex.ctxN] = br.id
						ex.ctxN++
					}
					break
				}
			}
		}
		if si, ok := vocab.subject[string(w)]; ok {
			ex.Mentions[si.organ.Index()]++
			ex.organs |= 1 << uint(si.organ.Index())
			if si.clinical {
				ex.ClinicalMentions++
			}
		}
	}
	return ex
}
