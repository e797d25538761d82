package idindex

import (
	"math/rand/v2"
	"testing"
)

// TestSplitmix64Golden pins the hash: the attention tie-break depends on
// its exact values.
func TestSplitmix64Golden(t *testing.T) {
	for _, c := range []struct{ in, want uint64 }{
		{0, 0xe220a8397b1dcdaf},
		{1, 0x910a2dec89025cc1},
		{0x9e3779b97f4a7c15, 0x6e789e6aa1b965f4},
	} {
		if got := Splitmix64(c.in); got != c.want {
			t.Errorf("Splitmix64(%#x) = %#x, want %#x", c.in, got, c.want)
		}
	}
}

// TestTableMatchesMap drives the table the way the stores do — append a
// row and index it, or look an id up — against a map oracle.
func TestTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	var tbl Table
	var ids []int64
	oracle := map[int64]int32{}
	for step := 0; step < 20000; step++ {
		id := rng.Int64N(3000) - 1500 // small range: many hits, long chains
		want, in := oracle[id]
		if !in && rng.IntN(3) > 0 {
			row := int32(len(ids))
			ids = append(ids, id)
			tbl.Reserve(ids, len(ids))
			if !tbl.Insert(ids, row) {
				t.Fatalf("step %d: Insert(%d) refused a new id", step, id)
			}
			oracle[id] = row
		} else if got, ok := tbl.Row(ids, id); ok != in || (in && got != want) {
			t.Fatalf("step %d: Row(%d) = %d, %v; want %d, %v", step, id, got, ok, want, in)
		}
		if len(ids)*4 > tbl.Slots()*3 {
			t.Fatalf("step %d: load %d/%d above 3/4", step, len(ids), tbl.Slots())
		}
	}
	for id, want := range oracle {
		if got, ok := tbl.Row(ids, id); !ok || got != want {
			t.Fatalf("Row(%d) = %d, %v; want %d", id, got, ok, want)
		}
	}
	for id := int64(-1600); id < 1600; id++ {
		if _, in := oracle[id]; !in {
			if row, ok := tbl.Row(ids, id); ok || row != -1 {
				t.Fatalf("Row(%d) = %d, %v for an absent id", id, row, ok)
			}
		}
	}
	if len(ids) > 0 && tbl.Insert(ids, 0) {
		t.Fatal("Insert accepted an id already indexed")
	}
}
