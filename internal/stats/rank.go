package stats

import "sort"

// RankDescending returns the indices of xs ordered by descending value
// (ties broken by ascending index), used to present organ attention in
// ranked bins as in Figures 3, 4, and 7.
func RankDescending(xs []float64) []int {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] > xs[idx[b]] })
	return idx
}
