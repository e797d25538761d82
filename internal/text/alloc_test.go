package text

import "testing"

// TestExtractAllocFree enforces the hot-path allocation budget: once the
// scratch buffers have warmed up, Extract must not allocate at all — on
// in-context tweets, rejected tweets, or hashtag/URL/number-heavy noise.
// This is the regular-test twin of BenchmarkExtract's 0 allocs/op, so a
// regression fails `go test`, not just a benchmark read-out.
func TestExtractAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; budget enforced in non-race runs")
	}
	e := NewExtractor()
	inputs := []string{
		"RT @unos: Nearly 60,000 people are on the #kidney transplant waiting list — register as an organ donor today! https://example.org/donate",
		"please donate a kidney, be an organ donor",
		"I love kidney beans and have nothing to do with donation",
		"#DonateLife #OrganDonation HEART transplant recipient ❤️",
		"no keywords at all, just chatter about the weather",
	}
	// Warm the scratch buffers past their high-water mark first.
	for _, s := range inputs {
		e.Extract(s)
	}
	for _, s := range inputs {
		if n := testing.AllocsPerRun(100, func() { e.Extract(s) }); n != 0 {
			t.Errorf("Extract(%q) allocates %.1f times per op, want 0", s, n)
		}
	}
}
