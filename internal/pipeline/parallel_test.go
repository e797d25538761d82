package pipeline

import (
	"testing"

	"donorsense/internal/gen"
	"donorsense/internal/text"
	"donorsense/internal/twitter"
)

// TestProcessAllMatchesSequential: the parallel front-end must produce a
// bit-identical dataset to sequential Process.
func TestProcessAllMatchesSequential(t *testing.T) {
	corpus := gen.Generate(gen.DefaultConfig(0.01))

	seq := NewDataset()
	var seqRej, seqNonUS, seqUS int
	for _, tw := range corpus.Tweets {
		switch seq.Process(tw) {
		case Rejected:
			seqRej++
		case CollectedNonUS:
			seqNonUS++
		case CollectedUS:
			seqUS++
		}
	}

	par := NewDataset()
	rej, nonUS, us := par.ProcessAll(corpus.Tweets, 4)

	if rej != seqRej || nonUS != seqNonUS || us != seqUS {
		t.Fatalf("outcome counts differ: parallel (%d,%d,%d) vs sequential (%d,%d,%d)",
			rej, nonUS, us, seqRej, seqNonUS, seqUS)
	}
	assertDatasetsIdentical(t, par, seq)
}

func TestProcessAllWorkerCounts(t *testing.T) {
	corpus := gen.Generate(gen.DefaultConfig(0.005))
	want := NewDataset()
	for _, tw := range corpus.Tweets {
		want.Process(tw)
	}
	for _, workers := range []int{0, 1, 2, 3, 8} {
		d := NewDataset()
		d.ProcessAll(corpus.Tweets, workers)
		assertDatasetsIdentical(t, d, want)
	}
}

func TestProcessAllEmptyAndTiny(t *testing.T) {
	d := NewDataset()
	if r, n, u := d.ProcessAll(nil, 4); r+n+u != 0 {
		t.Error("empty corpus produced outcomes")
	}
	corpus := gen.Generate(gen.DefaultConfig(0.001))
	small := corpus.Tweets[:10]
	d2 := NewDataset()
	r, n, u := d2.ProcessAll(small, 4)
	if r+n+u != 10 {
		t.Errorf("outcomes %d+%d+%d != 10", r, n, u)
	}
}

func TestProcessAllInvokesHook(t *testing.T) {
	corpus := gen.Generate(gen.DefaultConfig(0.005))
	d := NewDataset()
	hooked := 0
	d.OnUSTweet = func(tw twitter.Tweet, ex text.Extraction) { hooked++ }
	_, _, us := d.ProcessAll(corpus.Tweets, 4)
	if hooked != us {
		t.Errorf("hook fired %d times for %d US tweets", hooked, us)
	}
}

func BenchmarkProcessAll(b *testing.B) {
	corpus := gen.Generate(gen.DefaultConfig(0.02))
	for _, workers := range []int{1, 2, 4} {
		b.Run(benchName(workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d := NewDataset()
				d.ProcessAll(corpus.Tweets, workers)
			}
		})
	}
}

func benchName(workers int) string {
	return "workers-" + string(rune('0'+workers))
}
