package mat

import (
	"errors"
	"math"
	"math/big"
	"math/rand/v2"
	"testing"
)

// exactValue draws a float64 the accumulator must hold: mixed signs and
// magnitudes from 2^-76 to 2^60, plus exact zeros and Û-like ratios.
func exactValue(r *rand.Rand) float64 {
	switch r.IntN(4) {
	case 0:
		return 0
	case 1:
		return float64(1+r.IntN(50)) / float64(1+r.IntN(1<<20))
	default:
		v := math.Ldexp(1+r.Float64(), r.IntN(136)-76)
		if r.IntN(2) == 0 {
			v = -v
		}
		return v
	}
}

// TestExactMatchesRat adds and subtracts random values and checks the
// sum against big.Rat arithmetic exactly, and its rounding against
// big.Rat's nearest float64, after every step.
func TestExactMatchesRat(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 200; trial++ {
		var e Exact
		want := new(big.Rat)
		for step := 0; step < 50; step++ {
			v := exactValue(r)
			rv := new(big.Rat).SetFloat64(v)
			if r.IntN(3) == 0 {
				if err := e.Sub(v); err != nil {
					t.Fatalf("Sub(%g): %v", v, err)
				}
				want.Sub(want, rv)
			} else {
				if err := e.Add(v); err != nil {
					t.Fatalf("Add(%g): %v", v, err)
				}
				want.Add(want, rv)
			}
			if e.Rat().Cmp(want) != 0 {
				t.Fatalf("trial %d step %d: sum %s, want %s", trial, step, e.Rat().FloatString(40), want.FloatString(40))
			}
			wantF, _ := want.Float64()
			if got := e.Float64(); math.Float64bits(got) != math.Float64bits(wantF) {
				t.Fatalf("trial %d step %d: Float64 %x, want %x", trial, step, math.Float64bits(got), math.Float64bits(wantF))
			}
			if e.IsZero() != (want.Sign() == 0) {
				t.Fatalf("IsZero %v for sum %s", e.IsZero(), want.FloatString(10))
			}
		}
	}
}

// TestExactRoundsTiesToEven pins the rounding of sums that fall exactly
// halfway between two float64s, and just past halfway.
func TestExactRoundsTiesToEven(t *testing.T) {
	one := 1.0
	half := math.Ldexp(1, -53) // half an ulp of 1
	cases := []struct {
		adds []float64
		want float64
	}{
		{[]float64{one, half}, one}, // tie, 1 is even
		{[]float64{math.Nextafter(one, 2), half}, math.Nextafter(one, 2) + 2*half}, // tie, rounds up to even
		{[]float64{one, half, math.Ldexp(1, -120)}, math.Nextafter(one, 2)},        // past halfway
		{[]float64{-one, -half}, -one},
		{[]float64{math.Ldexp(1, 63), math.Ldexp(1, 63), math.Ldexp(1, 63)}, math.Ldexp(3, 63)},
	}
	for i, c := range cases {
		var e Exact
		for _, v := range c.adds {
			if err := e.Add(v); err != nil {
				t.Fatal(err)
			}
		}
		if got := e.Float64(); got != c.want {
			t.Errorf("case %d: %v, want %v", i, got, c.want)
		}
	}
}

// TestExactOrderIndependent checks that any permutation and grouping of
// the same values gives the same bits, and that subtracting every value
// returns to zero.
func TestExactOrderIndependent(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	vals := make([]float64, 500)
	for i := range vals {
		vals[i] = exactValue(r)
	}
	var a Exact
	for _, v := range vals {
		if err := a.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	r.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	var b, c Exact
	for i, v := range vals {
		dst := &b
		if i%3 == 0 {
			dst = &c
		}
		if err := dst.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	b.Merge(&c)
	if a.Rat().Cmp(b.Rat()) != 0 {
		t.Fatalf("permuted and merged sum differs: %s vs %s", a.Rat(), b.Rat())
	}
	for _, v := range vals {
		if err := b.Sub(v); err != nil {
			t.Fatal(err)
		}
	}
	if !b.IsZero() {
		t.Fatalf("sum after subtracting everything: %s", b.Rat())
	}
}

// TestExactLongRuns adds and subtracts long runs of Û-like values, which
// take the fast lanes and fold them into the limbs many times over,
// interleaved with values that take the limb path, and checks the sum
// against big.Rat at every thousandth step.
func TestExactLongRuns(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 8))
	var e Exact
	want := new(big.Rat)
	for step := 1; step <= 20000; step++ {
		v := float64(r.IntN(1<<20)) / float64(1+r.IntN(1<<30))
		switch r.IntN(10) {
		case 0:
			v = exactValue(r)
		case 1, 2:
			v = -v
		}
		if err := e.Add(v); err != nil {
			t.Fatalf("Add(%g): %v", v, err)
		}
		want.Add(want, new(big.Rat).SetFloat64(v))
		if step%1000 == 0 {
			if e.Rat().Cmp(want) != 0 {
				t.Fatalf("step %d: sum %s, want %s", step, e.Rat().FloatString(40), want.FloatString(40))
			}
			wantF, _ := want.Float64()
			if got := e.Float64(); math.Float64bits(got) != math.Float64bits(wantF) {
				t.Fatalf("step %d: Float64 %v, want %v", step, got, wantF)
			}
		}
	}
}

// TestExactRefusesUnrepresentable checks NaN, infinities, magnitudes of
// 2^64 and above, and values with bits below 2^-128 are refused without
// touching the sum, while the range's edges are accepted.
func TestExactRefusesUnrepresentable(t *testing.T) {
	bad := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1),
		math.Ldexp(1, 64), -math.Ldexp(1, 64), math.MaxFloat64,
		math.Ldexp(1, -129), math.SmallestNonzeroFloat64,
		math.Ldexp(1+math.Ldexp(1, -52), -77), // lowest bit at 2^-129
	}
	var e Exact
	if err := e.Add(0.25); err != nil {
		t.Fatal(err)
	}
	before := e
	for _, v := range bad {
		if err := e.Add(v); !errors.Is(err, ErrInexact) {
			t.Errorf("Add(%g) = %v, want ErrInexact", v, err)
		}
		if err := e.Sub(v); !errors.Is(err, ErrInexact) {
			t.Errorf("Sub(%g) = %v, want ErrInexact", v, err)
		}
		if e != before {
			t.Fatalf("refused %g changed the sum", v)
		}
	}
	good := []float64{
		math.Nextafter(math.Ldexp(1, 64), 0), math.Ldexp(1, -128), math.Ldexp(1, -76),
		math.Ldexp(1+math.Ldexp(1, -52), -76), math.Ldexp(1, -35), math.Ldexp(1, -70),
		math.Copysign(0, -1),
	}
	for _, v := range good {
		var g Exact
		if err := g.Add(v); err != nil {
			t.Errorf("Add(%g): %v", v, err)
		}
		if g.Float64() != v {
			t.Errorf("Add(%g) then Float64 = %g", v, g.Float64())
		}
	}
}

func BenchmarkExactAdd(b *testing.B) {
	r := rand.New(rand.NewPCG(5, 6))
	vals := make([]float64, 4096)
	for i := range vals {
		// Û-like: most entries zero, the rest count ratios.
		if r.IntN(3) == 0 {
			vals[i] = float64(1+r.IntN(9)) / float64(10+r.IntN(40))
		}
	}
	var e Exact
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.Add(vals[i&4095])
	}
}
