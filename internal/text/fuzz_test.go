package text

import (
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"

	"donorsense/internal/organ"
)

// FuzzTokenize drives the tweet tokenizer with arbitrary byte soup: it
// must never panic, and word/hashtag tokens must stay valid lowercase
// UTF-8.
func FuzzTokenize(f *testing.F) {
	seeds := []string{
		"Register as an organ donor — kidney saves lives #DonateLife",
		"@user https://x.co/a #tag 60,000 on the waiting list",
		"héllo wörld 🫀 ❤️",
		"a#b@c.d-e'f",
		"\x00\xff\xfe broken bytes",
		"",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		toks := Tokenize(s)
		for _, tok := range toks {
			if tok.Kind == Word || tok.Kind == Hashtag {
				if !utf8.ValidString(tok.Text) {
					t.Fatalf("invalid UTF-8 token %q from %q", tok.Text, s)
				}
				for _, r := range tok.Text {
					if r >= 'A' && r <= 'Z' {
						t.Fatalf("uppercase leaked in %q from %q", tok.Text, s)
					}
				}
			}
			if tok.Pos < 0 || tok.Pos > len(s) {
				t.Fatalf("position %d out of range for %q", tok.Pos, s)
			}
		}
	})
}

// FuzzExtract checks Extract's invariants on arbitrary input: the
// collection predicate InContext holds exactly when a context term and
// an organ are both found, and a tweet never mentions fewer times than
// it names distinct organs.
func FuzzExtract(f *testing.F) {
	e := NewExtractor()
	for _, s := range []string{
		"donate a kidney", "kidney beans", "waiting list for a liver",
		"transplant", "heart", "organ failure pancreas",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		ex := e.Extract(s)
		if ex.InContext() != (ex.NumContextTerms() > 0 && ex.NumOrgans() > 0) {
			t.Fatalf("InContext disagrees with the terms found on %q", s)
		}
		if ex.TotalMentions() < ex.NumOrgans() {
			t.Fatalf("mention count below distinct organs for %q", s)
		}
	})
}

// referenceExtract is the original map-per-tweet extractor, kept verbatim
// (on top of the allocating Tokenize) as the semantic oracle for the
// allocation-free fast path. The differential fuzz below holds the two
// implementations bit-identical on arbitrary input.
type referenceExtract struct {
	contextUnigrams map[string]bool
	contextBigrams  map[string]map[string]bool
}

func newReferenceExtract() *referenceExtract {
	e := &referenceExtract{
		contextUnigrams: make(map[string]bool),
		contextBigrams:  make(map[string]map[string]bool),
	}
	for _, c := range organ.ContextWords() {
		parts := strings.Fields(c)
		switch len(parts) {
		case 1:
			e.contextUnigrams[parts[0]] = true
		case 2:
			m := e.contextBigrams[parts[0]]
			if m == nil {
				m = make(map[string]bool)
				e.contextBigrams[parts[0]] = m
			}
			m[parts[1]] = true
		}
	}
	return e
}

// refExtraction mirrors the observable surface of Extraction.
type refExtraction struct {
	ContextTerms     []string
	Organs           []organ.Organ
	Mentions         [organ.Count]int
	ClinicalMentions int
	Hashtags         int
}

func (e *referenceExtract) extract(tweet string) refExtraction {
	toks := Tokenize(tweet)
	words := make([]string, 0, len(toks))
	var ex refExtraction
	for _, t := range toks {
		switch t.Kind {
		case Word, Hashtag:
			words = append(words, t.Text)
		}
		if t.Kind == Hashtag {
			ex.Hashtags++
		}
	}
	seenCtx := make(map[string]bool)
	seenOrg := [organ.Count]bool{}
	for i, w := range words {
		if e.contextUnigrams[w] && !seenCtx[w] {
			seenCtx[w] = true
			ex.ContextTerms = append(ex.ContextTerms, w)
		}
		if seconds, ok := e.contextBigrams[w]; ok && i+1 < len(words) {
			if next := words[i+1]; seconds[next] {
				term := w + " " + next
				if !seenCtx[term] {
					seenCtx[term] = true
					ex.ContextTerms = append(ex.ContextTerms, term)
				}
			}
		}
		if o, ok := organ.SubjectOrgan(w); ok {
			ex.Mentions[o.Index()]++
			seenOrg[o.Index()] = true
			if organ.IsClinicalForm(w) {
				ex.ClinicalMentions++
			}
		}
	}
	for _, o := range organ.All() {
		if seenOrg[o.Index()] {
			ex.Organs = append(ex.Organs, o)
		}
	}
	return ex
}

// FuzzExtractDifferential pits the allocation-free extractor against the
// reference implementation on arbitrary text: every observable field of
// the extraction must be bit-identical, which is the guarantee that lets
// the parallel pipeline reuse extractor scratch without changing Table I.
func FuzzExtractDifferential(f *testing.F) {
	for _, s := range []string{
		"Register as an organ donor — kidney saves lives #DonateLife",
		"waiting list waiting list kidney donor",
		"RENAL transplant recipient, pulmonary waitlist",
		"organ failure; graft @mention https://x.co/a 60,000",
		"waiting @x list liver donor", // bigram across a skipped mention
		"héllo Wörld İstanbul kidney donated",
		"\x00\xff#Kidney donor",
		"",
	} {
		f.Add(s)
	}
	fast := NewExtractor()
	ref := newReferenceExtract()
	f.Fuzz(func(t *testing.T, s string) {
		got := fast.Extract(s)
		want := ref.extract(s)
		if !reflect.DeepEqual(got.ContextTerms(), want.ContextTerms) {
			t.Errorf("ContextTerms: fast %v, reference %v (input %q)", got.ContextTerms(), want.ContextTerms, s)
		}
		if !reflect.DeepEqual(got.Organs(), want.Organs) {
			t.Errorf("Organs: fast %v, reference %v (input %q)", got.Organs(), want.Organs, s)
		}
		if got.Mentions != want.Mentions {
			t.Errorf("Mentions: fast %v, reference %v (input %q)", got.Mentions, want.Mentions, s)
		}
		if got.ClinicalMentions != want.ClinicalMentions || got.Hashtags != want.Hashtags {
			t.Errorf("counters: fast (%d,%d), reference (%d,%d) (input %q)",
				got.ClinicalMentions, got.Hashtags, want.ClinicalMentions, want.Hashtags, s)
		}
		inCtx := len(want.ContextTerms) > 0 && len(want.Organs) > 0
		if got.InContext() != inCtx {
			t.Errorf("InContext: fast %v, reference %v (input %q)", got.InContext(), inCtx, s)
		}
	})
}
