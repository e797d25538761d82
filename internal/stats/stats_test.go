package stats

import (
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	tests := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, tt := range tests {
		if got := Mean(tt.in); !approx(got, tt.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Sample variance with n-1 = 32/7.
	if got := Variance(xs); !approx(got, 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, 32.0/7.0)
	}
	if got := StdDev(xs); !approx(got, math.Sqrt(32.0/7.0), 1e-12) {
		t.Errorf("StdDev = %v", got)
	}
	if Variance([]float64{1}) != 0 {
		t.Error("Variance of single value should be 0")
	}
}

func TestRanks(t *testing.T) {
	tests := []struct {
		in   []float64
		want []float64
	}{
		{[]float64{10, 20, 30}, []float64{1, 2, 3}},
		{[]float64{30, 10, 20}, []float64{3, 1, 2}},
		{[]float64{1, 1, 2}, []float64{1.5, 1.5, 3}},
		{[]float64{5, 5, 5, 5}, []float64{2.5, 2.5, 2.5, 2.5}},
		{[]float64{}, []float64{}},
	}
	for _, tt := range tests {
		got := Ranks(tt.in)
		if len(got) == 0 && len(tt.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, tt.want) {
			t.Errorf("Ranks(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestRanksSumProperty(t *testing.T) {
	// Ranks always sum to n(n+1)/2 regardless of ties.
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 7))
		n := 1 + r.IntN(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(r.IntN(10)) // many ties
		}
		sum := 0.0
		for _, rk := range Ranks(xs) {
			sum += rk
		}
		return approx(sum, float64(n*(n+1))/2, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPearsonPerfect(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{2, 4, 6, 8}
	r, err := Pearson(x, y)
	if err != nil || !approx(r, 1, 1e-12) {
		t.Errorf("Pearson = %v, %v; want 1", r, err)
	}
	yneg := []float64{8, 6, 4, 2}
	r, _ = Pearson(x, yneg)
	if !approx(r, -1, 1e-12) {
		t.Errorf("Pearson = %v, want -1", r)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Pearson([]float64{1}, []float64{2}); err == nil {
		t.Error("single observation accepted")
	}
	if _, err := Pearson([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Error("zero variance accepted")
	}
}

func TestSpearmanMonotonic(t *testing.T) {
	// Any strictly increasing transform gives r = 1.
	x := []float64{1, 5, 2, 8, 3}
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = v*v*v + 10
	}
	res, err := Spearman(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(res.R, 1, 1e-12) {
		t.Errorf("Spearman R = %v, want 1", res.R)
	}
	if res.P > 1e-6 {
		t.Errorf("perfect correlation p = %v, want ~0", res.P)
	}
}

func TestSpearmanKnownValue(t *testing.T) {
	// Example with one swapped pair out of 6 ranks:
	// x ranks 1..6, y ranks 1,2,3,4,6,5 → r = 1 - 6*2/(6*35) = 0.9428...
	x := []float64{1, 2, 3, 4, 5, 6}
	y := []float64{1, 2, 3, 4, 6, 5}
	res, err := Spearman(x, y)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - 6.0*2.0/(6.0*35.0)
	if !approx(res.R, want, 1e-12) {
		t.Errorf("Spearman R = %v, want %v", res.R, want)
	}
	if res.P <= 0 || res.P >= 0.05 {
		t.Errorf("p-value = %v, want in (0, .05) for near-perfect n=6", res.P)
	}
}

func TestSpearmanUncorrelated(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	y := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	res, err := Spearman(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.R) > 0.7 {
		t.Errorf("R = %v, expected weak correlation", res.R)
	}
	if res.P < 0.05 {
		t.Errorf("p = %v, expected not significant", res.P)
	}
}

func TestSpearmanErrors(t *testing.T) {
	if _, err := Spearman([]float64{1, 2}, []float64{1, 2}); err == nil {
		t.Error("n=2 accepted")
	}
	if _, err := Spearman([]float64{1, 2, 3}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestSpearmanSymmetryProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 8))
		n := 4 + r.IntN(20)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = r.Float64()
			y[i] = r.Float64()
		}
		a, err1 := Spearman(x, y)
		b, err2 := Spearman(y, x)
		if err1 != nil || err2 != nil {
			return false
		}
		return approx(a.R, b.R, 1e-12) && approx(a.P, b.P, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestStudentTSFAgainstKnownValues(t *testing.T) {
	// Two-sided t critical values: P(T>2.776, df=4) ≈ 0.025.
	if got := studentTSF(2.776, 4); !approx(got, 0.025, 0.001) {
		t.Errorf("studentTSF(2.776, 4) = %v, want ≈0.025", got)
	}
	// P(T>1.96, df=1e6) ≈ 0.025 (normal limit).
	if got := studentTSF(1.959964, 1e6); !approx(got, 0.025, 0.0005) {
		t.Errorf("studentTSF(1.96, 1e6) = %v, want ≈0.025", got)
	}
	if got := studentTSF(0, 10); got != 0.5 {
		t.Errorf("studentTSF(0) = %v, want 0.5", got)
	}
}

func TestRegIncBetaBounds(t *testing.T) {
	if regIncBeta(2, 3, 0) != 0 || regIncBeta(2, 3, 1) != 1 {
		t.Error("regIncBeta bounds wrong")
	}
	// I_x(1,1) = x (uniform CDF).
	for _, x := range []float64{0.1, 0.42, 0.9} {
		if got := regIncBeta(1, 1, x); !approx(got, x, 1e-10) {
			t.Errorf("regIncBeta(1,1,%v) = %v", x, got)
		}
	}
	// Symmetry: I_x(a,b) = 1 − I_{1−x}(b,a).
	if got, want := regIncBeta(2.5, 4, 0.3), 1-regIncBeta(4, 2.5, 0.7); !approx(got, want, 1e-10) {
		t.Errorf("regIncBeta symmetry: %v vs %v", got, want)
	}
}

// --- Relative risk ---

func TestRelativeRiskPointEstimate(t *testing.T) {
	// Inside: 30 of 100; outside: 10 of 100 → RR = 3.
	rr, err := NewRelativeRisk(30, 70, 10, 90)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(rr.RR, 3, 1e-12) {
		t.Errorf("RR = %v, want 3", rr.RR)
	}
	wantSE := math.Sqrt(1.0/30 - 1.0/100 + 1.0/10 - 1.0/100)
	if !approx(rr.SE, wantSE, 1e-12) {
		t.Errorf("SE = %v, want %v", rr.SE, wantSE)
	}
	if !rr.Significant() {
		t.Error("RR=3 with these counts should be significant")
	}
	if rr.SignificantlyLow() {
		t.Error("RR=3 cannot be significantly low")
	}
	if !approx(rr.Lower, math.Exp(rr.LogRR-Z95*rr.SE), 1e-12) {
		t.Error("Lower CI inconsistent")
	}
}

func TestRelativeRiskNull(t *testing.T) {
	// Identical prevalence → RR = 1, never significant.
	rr, err := NewRelativeRisk(10, 90, 100, 900)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(rr.RR, 1, 1e-12) || rr.Significant() || rr.SignificantlyLow() {
		t.Errorf("null RR misbehaves: %+v", rr)
	}
}

func TestRelativeRiskLow(t *testing.T) {
	rr, err := NewRelativeRisk(5, 995, 300, 1700)
	if err != nil {
		t.Fatal(err)
	}
	if rr.RR >= 1 || !rr.SignificantlyLow() || rr.Significant() {
		t.Errorf("low RR misbehaves: %+v", rr)
	}
}

func TestRelativeRiskErrors(t *testing.T) {
	cases := [][4]int{
		{0, 10, 5, 5}, // a == 0
		{5, 5, 0, 10}, // c == 0
		{0, 0, 5, 5},  // empty inside
		{5, 5, 0, 0},  // empty outside
		{-1, 5, 5, 5}, // negative
	}
	for _, c := range cases {
		if _, err := NewRelativeRisk(c[0], c[1], c[2], c[3]); err == nil {
			t.Errorf("NewRelativeRisk(%v) accepted", c)
		}
	}
}

func TestRelativeRiskSignificanceMatchesCI(t *testing.T) {
	// The paper's log-scale rule must agree with the RR-scale CI bound.
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 9))
		a, b := 1+r.IntN(200), r.IntN(500)
		c, d := 1+r.IntN(200), r.IntN(5000)
		rr, err := NewRelativeRisk(a, b, c, d)
		if err != nil {
			return true // invalid table, nothing to check
		}
		return rr.Significant() == (rr.Lower > 1) &&
			rr.SignificantlyLow() == (rr.Upper < 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRelativeRiskMoreDataNarrowsCI(t *testing.T) {
	small, _ := NewRelativeRisk(6, 14, 30, 170)
	big, _ := NewRelativeRisk(60, 140, 300, 1700)
	if !(big.SE < small.SE) {
		t.Errorf("10x data did not shrink SE: %v vs %v", big.SE, small.SE)
	}
	if !approx(small.RR, big.RR, 1e-12) {
		t.Errorf("point estimates differ: %v vs %v", small.RR, big.RR)
	}
}

// --- ranking ---

func TestRankDescending(t *testing.T) {
	got := RankDescending([]float64{0.1, 0.5, 0.3})
	want := []int{1, 2, 0}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("RankDescending = %v, want %v", got, want)
	}
	// Stable on ties.
	got = RankDescending([]float64{0.5, 0.5, 0.1})
	want = []int{0, 1, 2}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("RankDescending ties = %v, want %v", got, want)
	}
}

func TestSpearmanPermutationExactP(t *testing.T) {
	// Perfect monotone n=4: only 2 of 24 permutations reach |r| = 1
	// (identity and full reversal) → p = 2/24.
	x := []float64{1, 2, 3, 4}
	y := []float64{10, 20, 30, 40}
	res, err := SpearmanPermutation(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(res.R, 1, 1e-12) {
		t.Errorf("R = %v, want 1", res.R)
	}
	if !approx(res.P, 2.0/24.0, 1e-12) {
		t.Errorf("P = %v, want 2/24", res.P)
	}
}

func TestSpearmanPermutationPaperCase(t *testing.T) {
	// The paper's configuration: 6 organs, heart displaced by two ranks.
	// Exact permutation p for r = .829 on n = 6.
	twitterRank := []float64{6, 5, 4, 3, 2, 1}    // heart..intestine popularity
	transplantRank := []float64{4, 6, 5, 3, 2, 1} // heart 3rd, kidney 1st, liver 2nd
	res, err := SpearmanPermutation(twitterRank, transplantRank)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(res.R, 1-6.0/35.0, 1e-12) {
		t.Errorf("R = %v, want %v", res.R, 1-6.0/35.0)
	}
	// A methodological finding of this reproduction: the *exact*
	// two-sided p for r = .829 at n = 6 is 42/720 ≈ .058 — the paper's
	// "p < .05" holds under the t approximation (p ≈ .042, what scipy
	// reports) but is marginal under the exact permutation test.
	if !approx(res.P, 42.0/720.0, 1e-9) {
		t.Errorf("exact p = %v, want 42/720", res.P)
	}
	approxRes, err := Spearman(twitterRank, transplantRank)
	if err != nil {
		t.Fatal(err)
	}
	if !(approxRes.P < 0.05 && res.P > 0.05) {
		t.Errorf("expected t-approx p (%v) < .05 < exact p (%v)", approxRes.P, res.P)
	}
	if math.Abs(res.P-approxRes.P) > 0.03 {
		t.Errorf("exact p %v far from t-approx %v", res.P, approxRes.P)
	}
}

func TestSpearmanPermutationErrors(t *testing.T) {
	long := make([]float64, 10)
	for i := range long {
		long[i] = float64(i)
	}
	if _, err := SpearmanPermutation(long, long); err == nil {
		t.Error("n=10 accepted")
	}
	if _, err := SpearmanPermutation([]float64{1, 2}, []float64{1, 2}); err == nil {
		t.Error("n=2 accepted")
	}
	if _, err := SpearmanPermutation([]float64{1, 2, 3}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestSpearmanPermutationUncorrelated(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5, 6}
	y := []float64{3, 1, 4, 1.5, 5, 2}
	res, err := SpearmanPermutation(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if res.P < 0.3 {
		t.Errorf("uncorrelated exact p = %v, want large", res.P)
	}
}
