package twitter

import (
	"fmt"
	"strings"

	"donorsense/internal/text"
)

// FilterPath is the streaming filter endpoint path, matching the real
// API's POST/GET https://stream.twitter.com/1.1/statuses/filter.json.
const FilterPath = "/1.1/statuses/filter.json"

// TrackFilter implements the Twitter Stream API "track" parameter
// semantics: the parameter is a comma-separated list of phrases; a phrase
// matches a tweet when every term in the phrase appears in the tweet's
// text (case-insensitive, order-independent, punctuation-delimited); the
// filter matches when any phrase matches.
//
// The paper's collection filter is the Cartesian product Context × Subject
// rendered as such phrases ("donor kidney", "transplant heart", ...),
// which makes every collected tweet contain at least one Context and one
// Subject term.
type TrackFilter struct {
	phrases [][]string // each phrase is a conjunction of terms
}

// NewTrackFilter parses a track parameter string. Empty phrases are
// ignored; an entirely empty parameter yields a filter that matches
// nothing (Twitter rejects such requests; the server layer turns that
// into an HTTP 406 like the real API).
func NewTrackFilter(track string) *TrackFilter {
	f := &TrackFilter{}
	for _, phrase := range strings.Split(track, ",") {
		terms := strings.Fields(strings.ToLower(strings.TrimSpace(phrase)))
		if len(terms) > 0 {
			f.phrases = append(f.phrases, terms)
		}
	}
	return f
}

// Empty reports whether the filter has no phrases.
func (f *TrackFilter) Empty() bool { return len(f.phrases) == 0 }

// NumPhrases returns the number of phrases in the filter.
func (f *TrackFilter) NumPhrases() int { return len(f.phrases) }

// Matches reports whether the tweet text satisfies any phrase.
func (f *TrackFilter) Matches(tweetText string) bool {
	if len(f.phrases) == 0 {
		return false
	}
	words := text.Words(tweetText)
	set := make(map[string]bool, len(words))
	for _, w := range words {
		set[w] = true
	}
	for _, phrase := range f.phrases {
		all := true
		for _, term := range phrase {
			if !set[term] {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// ValidateTrack checks a track parameter the way the API's request
// validation does: non-empty and at most 400 phrases.
func ValidateTrack(track string) error {
	f := NewTrackFilter(track)
	if f.Empty() {
		return fmt.Errorf("twitter: track parameter has no phrases")
	}
	if f.NumPhrases() > 400 {
		return fmt.Errorf("twitter: track parameter has %d phrases, limit 400", f.NumPhrases())
	}
	return nil
}
