package cluster

import (
	"fmt"
	"math"
	"sort"
)

// Linkage selects how agglomerative clustering measures inter-cluster
// distance.
type Linkage int

// Supported linkages. Average linkage (UPGMA) is the default the paper's
// scikit-learn AgglomerativeClustering uses with a precomputed affinity.
const (
	AverageLinkage Linkage = iota
	SingleLinkage
	CompleteLinkage
	// WardLinkage minimizes within-cluster variance. It assumes the
	// input matrix holds Euclidean distances (the Lance–Williams Ward
	// recurrence operates on their squares); with other metrics the
	// result is a Ward-like heuristic, as in scipy.
	WardLinkage
)

// String returns the linkage name.
func (l Linkage) String() string {
	switch l {
	case AverageLinkage:
		return "average"
	case SingleLinkage:
		return "single"
	case CompleteLinkage:
		return "complete"
	case WardLinkage:
		return "ward"
	}
	return "linkage(?)"
}

// Merge records one agglomeration step: clusters A and B merged at the
// given Height (inter-cluster distance). Cluster ids 0..n−1 are leaves;
// merge i creates cluster n+i.
type Merge struct {
	A, B   int
	Height float64
}

// Dendrogram is the full merge tree of an agglomerative run over n items.
type Dendrogram struct {
	N      int
	Merges []Merge
}

// Agglomerative performs hierarchical clustering on a precomputed
// symmetric distance matrix using the Lance–Williams recurrence for the
// chosen linkage. It returns the dendrogram.
//
// The implementation is the O(n²) nearest-neighbor-chain algorithm over
// a packed condensed (upper-triangle) copy of the matrix: chains of
// nearest neighbors end in reciprocal pairs, and for the reducible
// linkages of this package (single, complete, average, Ward) merging a
// reciprocal pair never invalidates other chains. The merges are then
// sorted by height and relabelled, which reproduces the dendrogram of
// the naive O(n³) greedy scan (kept below as agglomerativeNaive, the
// test oracle) exactly, up to the order of equal-height merges.
func Agglomerative(dist [][]float64, linkage Linkage) (*Dendrogram, error) {
	n := len(dist)
	if n == 0 {
		return nil, fmt.Errorf("cluster: empty distance matrix")
	}
	for i, row := range dist {
		if len(row) != n {
			return nil, fmt.Errorf("cluster: distance matrix row %d has %d cols, want %d", i, len(row), n)
		}
	}
	if n == 1 {
		return &Dendrogram{N: 1}, nil
	}
	cd := condense(dist)
	raw := nnChain(cd, n, linkage)
	return labelMerges(raw, n), nil
}

// condense packs the strict upper triangle of a symmetric n×n matrix
// into a flat slice of n(n−1)/2 elements; condIdx maps (i, j), i≠j, to
// the packed offset.
func condense(dist [][]float64) []float64 {
	n := len(dist)
	cd := make([]float64, n*(n-1)/2)
	p := 0
	for i := 0; i < n; i++ {
		row := dist[i]
		for j := i + 1; j < n; j++ {
			cd[p] = row[j]
			p++
		}
	}
	return cd
}

func condIdx(n, i, j int) int {
	if i > j {
		i, j = j, i
	}
	return i*(2*n-i-1)/2 + (j - i - 1)
}

// rawMerge is an unlabelled NN-chain merge: the two surviving slot
// indices joined, and the inter-cluster distance at which they joined.
type rawMerge struct {
	a, b int
	h    float64
}

// nnChain runs the nearest-neighbor-chain agglomeration over the packed
// condensed matrix, destroying it in the process. size doubles as the
// active mask (0 = retired slot).
func nnChain(cd []float64, n int, linkage Linkage) []rawMerge {
	size := make([]int, n)
	for i := range size {
		size[i] = 1
	}
	chain := make([]int, 0, n)
	merges := make([]rawMerge, 0, n-1)
	start := 0 // lowest possibly-active slot, advanced lazily
	for len(merges) < n-1 {
		if len(chain) == 0 {
			for size[start] == 0 {
				start++
			}
			chain = append(chain, start)
		}
		// Grow the chain by nearest neighbors until it doubles back.
		var x, y int
		var best float64
		for {
			x = chain[len(chain)-1]
			// Prefer the previous chain element on ties — with an exact
			// tie the chain must double back, or equal distances could
			// cycle forever.
			y = -1
			best = math.Inf(1)
			if len(chain) >= 2 {
				y = chain[len(chain)-2]
				best = cd[condIdx(n, x, y)]
			}
			for i := 0; i < n; i++ {
				if size[i] == 0 || i == x {
					continue
				}
				if d := cd[condIdx(n, x, i)]; d < best {
					best, y = d, i
				}
			}
			if y == -1 {
				// Nothing finite remains (e.g. Bhattacharyya on disjoint
				// supports): merge with the first active other slot at
				// +Inf, as the naive scan does.
				for i := 0; i < n; i++ {
					if size[i] != 0 && i != x {
						y = i
						break
					}
				}
			}
			if len(chain) >= 2 && y == chain[len(chain)-2] {
				chain = chain[:len(chain)-2]
				break
			}
			chain = append(chain, y)
		}
		merges = append(merges, rawMerge{a: x, b: y, h: best})

		// Lance–Williams update into slot y; retire slot x.
		nx, ny := float64(size[x]), float64(size[y])
		for i := 0; i < n; i++ {
			if size[i] == 0 || i == x || i == y {
				continue
			}
			dxi := cd[condIdx(n, x, i)]
			dyi := cd[condIdx(n, y, i)]
			var nd float64
			switch linkage {
			case SingleLinkage:
				nd = math.Min(dxi, dyi)
			case CompleteLinkage:
				nd = math.Max(dxi, dyi)
			case WardLinkage:
				ni := float64(size[i])
				tot := nx + ny + ni
				nd2 := ((nx+ni)*dxi*dxi + (ny+ni)*dyi*dyi - ni*best*best) / tot
				if nd2 < 0 {
					nd2 = 0
				}
				nd = math.Sqrt(nd2)
			default: // AverageLinkage
				nd = (nx*dxi + ny*dyi) / (nx + ny)
			}
			cd[condIdx(n, y, i)] = nd
		}
		size[y] += size[x]
		size[x] = 0
	}
	return merges
}

// labelMerges sorts NN-chain merges by height (stable, so equal-height
// merges keep discovery order) and rewrites the slot indices into
// dendrogram cluster ids via union-find: leaves are 0..n−1 and merge i
// creates cluster n+i, the convention the rest of the package and the
// naive oracle share.
func labelMerges(raw []rawMerge, n int) *Dendrogram {
	sort.SliceStable(raw, func(i, j int) bool { return raw[i].h < raw[j].h })
	parent := make([]int, 2*n-1)
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	dg := &Dendrogram{N: n, Merges: make([]Merge, len(raw))}
	for i, m := range raw {
		a, b := find(m.a), find(m.b)
		id := n + i
		parent[a], parent[b] = id, id
		dg.Merges[i] = Merge{A: a, B: b, Height: m.h}
	}
	return dg
}

// Cut returns cluster labels (0-based, contiguous) for exactly k clusters,
// by undoing the last k−1 merges.
func (dg *Dendrogram) Cut(k int) ([]int, error) {
	if k < 1 || k > dg.N {
		return nil, fmt.Errorf("cluster: cut at k=%d with n=%d", k, dg.N)
	}
	// Union-find over the first n−k merges.
	parent := make([]int, dg.N+len(dg.Merges))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i := 0; i < dg.N-k; i++ {
		m := dg.Merges[i]
		newID := dg.N + i
		parent[find(m.A)] = newID
		parent[find(m.B)] = newID
	}
	labels := make([]int, dg.N)
	remap := map[int]int{}
	for i := 0; i < dg.N; i++ {
		root := find(i)
		if _, ok := remap[root]; !ok {
			remap[root] = len(remap)
		}
		labels[i] = remap[root]
	}
	return labels, nil
}

// LeafOrder returns the leaves in dendrogram order (depth-first through
// the final merge), the ordering used to arrange rows/columns of the
// Figure 6 similarity heatmap so that similar states sit together.
func (dg *Dendrogram) LeafOrder() []int {
	if dg.N == 1 {
		return []int{0}
	}
	children := map[int][2]int{}
	for i, m := range dg.Merges {
		children[dg.N+i] = [2]int{m.A, m.B}
	}
	var order []int
	var walk func(int)
	walk = func(node int) {
		if node < dg.N {
			order = append(order, node)
			return
		}
		c := children[node]
		walk(c[0])
		walk(c[1])
	}
	walk(dg.N + len(dg.Merges) - 1)
	return order
}

// Heights returns the merge heights in order, useful for picking a cut by
// the largest gap.
func (dg *Dendrogram) Heights() []float64 {
	hs := make([]float64, len(dg.Merges))
	for i, m := range dg.Merges {
		hs[i] = m.Height
	}
	return hs
}

// CopheneticDistances returns the cophenetic distance (merge height at
// which two leaves first join) for every pair, as a condensed map keyed by
// [i][j] with i<j. Used by tests to validate dendrogram structure.
func (dg *Dendrogram) CopheneticDistances() map[[2]int]float64 {
	// members[c] = leaves under cluster id c.
	members := make(map[int][]int, dg.N+len(dg.Merges))
	for i := 0; i < dg.N; i++ {
		members[i] = []int{i}
	}
	out := map[[2]int]float64{}
	for i, m := range dg.Merges {
		for _, a := range members[m.A] {
			for _, b := range members[m.B] {
				x, y := a, b
				if x > y {
					x, y = y, x
				}
				out[[2]int{x, y}] = m.Height
			}
		}
		merged := append(append([]int{}, members[m.A]...), members[m.B]...)
		sort.Ints(merged)
		members[dg.N+i] = merged
	}
	return out
}
