package mat

import (
	"math/rand/v2"
	"testing"
)

// benchMatrix returns an n×dim matrix of positive random entries.
func benchMatrix(n, dim int, seed uint64) *Matrix {
	r := rand.New(rand.NewPCG(seed, 0x3a))
	m := New(n, dim)
	for i := 0; i < n; i++ {
		row := m.RowView(i)
		for j := range row {
			row[j] = r.Float64() + 1e-9
		}
	}
	return m
}

// BenchmarkNormalizeRows is the Û construction: turning count rows into
// distributions, 10k users × 6 organs.
func BenchmarkNormalizeRows(b *testing.B) {
	src := benchMatrix(10000, 6, 1)
	dst := src.Clone()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(dst.data, src.data)
		dst.NormalizeRows()
	}
}
