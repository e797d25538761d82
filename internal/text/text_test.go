package text

import (
	"reflect"
	"testing"
	"testing/quick"

	"donorsense/internal/organ"
)

func kinds(toks []Token) []TokenKind {
	out := make([]TokenKind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func texts(toks []Token) []string {
	out := make([]string, len(toks))
	for i, t := range toks {
		out[i] = t.Text
	}
	return out
}

func TestTokenizeBasics(t *testing.T) {
	tests := []struct {
		in        string
		wantText  []string
		wantKinds []TokenKind
	}{
		{
			"Be an organ donor!",
			[]string{"be", "an", "organ", "donor"},
			[]TokenKind{Word, Word, Word, Word},
		},
		{
			"#OrganDonation saves lives @UNOS https://example.org/x",
			[]string{"organdonation", "saves", "lives", "unos", "https://example.org/x"},
			[]TokenKind{Hashtag, Word, Word, Mention, URL},
		},
		{
			"kidney, kidney; KIDNEY!",
			[]string{"kidney", "kidney", "kidney"},
			[]TokenKind{Word, Word, Word},
		},
		{
			"heart-lung transplant",
			[]string{"heart", "lung", "transplant"},
			[]TokenKind{Word, Word, Word},
		},
		{
			"donor's wish",
			[]string{"donor's", "wish"},
			[]TokenKind{Word, Word},
		},
		{
			"60,000 people waiting",
			[]string{"60,000", "people", "waiting"},
			[]TokenKind{NumberTok, Word, Word},
		},
		{"", nil, nil},
		{"   \t\n ", nil, nil},
		{"🫀❤️", nil, nil},
	}
	for _, tt := range tests {
		got := Tokenize(tt.in)
		if !reflect.DeepEqual(texts(got), tt.wantText) && !(len(got) == 0 && len(tt.wantText) == 0) {
			t.Errorf("Tokenize(%q) texts = %v, want %v", tt.in, texts(got), tt.wantText)
			continue
		}
		if len(tt.wantKinds) > 0 && !reflect.DeepEqual(kinds(got), tt.wantKinds) {
			t.Errorf("Tokenize(%q) kinds = %v, want %v", tt.in, kinds(got), tt.wantKinds)
		}
	}
}

func TestTokenizeUnicode(t *testing.T) {
	got := Words("Señor donated a riñón… kidney ❤")
	want := []string{"señor", "donated", "a", "riñón", "kidney"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Words = %v, want %v", got, want)
	}
}

func TestTokenizePositions(t *testing.T) {
	in := "ab #cd"
	toks := Tokenize(in)
	if len(toks) != 2 {
		t.Fatalf("got %d tokens, want 2", len(toks))
	}
	if toks[0].Pos != 0 || toks[1].Pos != 3 {
		t.Errorf("positions = %d,%d; want 0,3", toks[0].Pos, toks[1].Pos)
	}
}

func TestWordsExcludesMentionsAndURLs(t *testing.T) {
	got := Words("@kidney_fan check https://kidney.org now")
	want := []string{"check", "now"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Words = %v, want %v", got, want)
	}
}

func TestTokenizeNeverPanics(t *testing.T) {
	f := func(s string) bool {
		_ = Tokenize(s)
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTokenizeLowercasesWords(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range Tokenize(s) {
			if tok.Kind == Word || tok.Kind == Hashtag {
				for _, r := range tok.Text {
					if r >= 'A' && r <= 'Z' {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExtract(t *testing.T) {
	e := NewExtractor()
	tests := []struct {
		in          string
		wantCtx     bool
		wantOrgans  []organ.Organ
		wantTotal   int
		wantContext []string
	}{
		{
			"Please register as an organ donor — one kidney can save a life",
			true,
			[]organ.Organ{organ.Kidney},
			1,
			[]string{"donor"},
		},
		{
			"My uncle had a heart transplant and a kidney transplant",
			true,
			[]organ.Organ{organ.Heart, organ.Kidney},
			2,
			[]string{"transplant"},
		},
		{
			"I love kidney beans",
			false,
			[]organ.Organ{organ.Kidney},
			1,
			nil,
		},
		{
			"donate blood today",
			false,
			nil,
			0,
			[]string{"donate"},
		},
		{
			"60,000 on the waiting list for a kidney",
			true,
			[]organ.Organ{organ.Kidney},
			1,
			[]string{"waiting list"},
		},
		{
			"#OrganDonation gave my sister new lungs",
			false, // "organdonation" hashtag is one word, not a context term
			[]organ.Organ{organ.Lung},
			1,
			nil,
		},
		{
			"my kidneys, his kidney — donate!",
			true,
			[]organ.Organ{organ.Kidney},
			2,
			[]string{"donate"},
		},
	}
	for _, tt := range tests {
		ex := e.Extract(tt.in)
		if ex.InContext() != tt.wantCtx {
			t.Errorf("Extract(%q).InContext() = %v, want %v", tt.in, ex.InContext(), tt.wantCtx)
		}
		if !reflect.DeepEqual(ex.Organs(), tt.wantOrgans) {
			t.Errorf("Extract(%q).Organs = %v, want %v", tt.in, ex.Organs(), tt.wantOrgans)
		}
		if ex.TotalMentions() != tt.wantTotal {
			t.Errorf("Extract(%q).TotalMentions() = %d, want %d", tt.in, ex.TotalMentions(), tt.wantTotal)
		}
		if !reflect.DeepEqual(ex.ContextTerms(), tt.wantContext) {
			t.Errorf("Extract(%q).ContextTerms = %v, want %v", tt.in, ex.ContextTerms(), tt.wantContext)
		}
	}
}

func TestExtractMentionHandleDoesNotCount(t *testing.T) {
	e := NewExtractor()
	ex := e.Extract("@heart_donor hello")
	if ex.NumOrgans() != 0 || ex.NumContextTerms() != 0 {
		t.Errorf("mention handle matched keywords: %+v", ex)
	}
}

func TestExtractClinicalVariants(t *testing.T) {
	e := NewExtractor()
	ex := e.Extract("renal transplant recipient with pulmonary complications")
	wantOrgans := []organ.Organ{organ.Kidney, organ.Lung}
	if !reflect.DeepEqual(ex.Organs(), wantOrgans) {
		t.Errorf("Organs = %v, want %v", ex.Organs(), wantOrgans)
	}
	if !ex.InContext() {
		t.Error("clinical-variant tweet should be in context")
	}
}

func BenchmarkTokenize(b *testing.B) {
	s := "RT @unos: Nearly 60,000 people are on the #kidney transplant waiting list — register as an organ donor today! https://example.org/donate"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Tokenize(s)
	}
}

func BenchmarkExtract(b *testing.B) {
	e := NewExtractor()
	s := "RT @unos: Nearly 60,000 people are on the #kidney transplant waiting list — register as an organ donor today!"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Extract(s)
	}
}
