package mat

import (
	"errors"
	"math"
	"math/big"
	"math/bits"
)

// ErrInexact is returned when a value cannot be held exactly by an
// Exact accumulator: NaN, ±Inf, a magnitude of 2^64 or more, or a value
// with bits below 2^-128.
var ErrInexact = errors.New("mat: value outside the exact accumulator's range")

// exactFrac is the number of fraction bits of an Exact's fixed point.
const exactFrac = 128

// laneAdds is how many values the fast lanes take before they are
// folded into the limbs: few enough that neither lane can overflow.
const laneAdds = 1 << 10

// Exact is an exact, order-independent, subtractable float64
// accumulator: a 256-bit two's-complement integer counting units of
// 2^-128, the fixed-point counterpart of the stats integer counters.
// Because every accepted value is added without rounding, a sum depends
// only on the multiset of values added and subtracted, never on their
// order or grouping, and subtracting a value exactly undoes adding it.
//
// It holds any finite float64 that is a multiple of 2^-128 with
// magnitude below 2^64 — every value of magnitude 2^-76 or more, so all
// of Û's range (entries c/s with s < 2^35 are 0 or at least 2^-35, and
// squared row norms at least 2^-70) — and any sum of fewer than 2^63
// such values. Add refuses anything else with ErrInexact and leaves the
// accumulator unchanged; it never rounds. Float64 rounds the exact sum
// once, to nearest with ties to even. The zero value is the empty sum.
//
// Values below 2^17 in magnitude that are multiples of 2^-87 — all of
// Û's entries and its rows' squared norms — take a fast path: two
// machine-integer lanes, folded into the limbs every laneAdds values.
// Accumulators holding the same sum may therefore differ in layout;
// compare them through Float64 or Rat, not ==.
type Exact struct {
	w      [4]uint64 // little-endian limbs
	hi, lo int64     // pending lanes: hi·2^-35 + lo·2^-87
	n      int32     // values in the lanes
}

// Add adds v exactly, or returns ErrInexact and leaves the sum as it
// was.
func (e *Exact) Add(v float64) error {
	// v·2^35 = h + f with h an integer and |f| < 1, both exact (scaling
	// by a power of two and taking a float's low bits do not round); v is
	// a multiple of 2^-87 exactly when f·2^52 is an integer. NaN fails
	// the range test.
	if t := v * 0x1p35; math.Abs(t) < 0x1p52 {
		h := int64(t)
		f := (t - float64(h)) * 0x1p52
		if l := int64(f); float64(l) == f {
			e.hi += h
			e.lo += l
			if e.n++; e.n == laneAdds {
				e.flush()
			}
			return nil
		}
	}
	b := math.Float64bits(v)
	exp := int(b>>52) & 0x7ff
	m := b & (1<<52 - 1)
	switch exp {
	case 0x7ff:
		return ErrInexact
	case 0:
		exp = 1 // subnormal
	default:
		m |= 1 << 52
	}
	// |v| = m·2^(exp-1075); m's lowest bit lands on fixed-point bit p.
	p := exp - 1075 + exactFrac
	if p > 192-53 { // |v| ≥ 2^64
		return ErrInexact
	}
	if p < 0 {
		if m&(1<<uint(-p)-1) != 0 {
			return ErrInexact
		}
		m >>= uint(-p)
		p = 0
	}
	e.addMag(m, uint(p), b>>63 != 0)
	return nil
}

// Sub subtracts v exactly, or returns ErrInexact and leaves the sum as
// it was.
func (e *Exact) Sub(v float64) error { return e.Add(-v) }

// Merge adds another accumulator's sum into e.
func (e *Exact) Merge(o *Exact) {
	c := *o
	c.flush()
	e.flush()
	var carry uint64
	for i := range e.w {
		e.w[i], carry = bits.Add64(e.w[i], c.w[i], carry)
	}
}

// IsZero reports whether the sum is exactly zero.
func (e *Exact) IsZero() bool {
	c := *e
	c.flush()
	return c.w == [4]uint64{}
}

// flush folds the lanes into the limbs.
func (e *Exact) flush() {
	e.addInt(e.hi, exactFrac-35)
	e.addInt(e.lo, exactFrac-87)
	e.hi, e.lo, e.n = 0, 0, 0
}

// addInt adds v·2^p units; |v| < 2^63 (the lanes never reach it).
func (e *Exact) addInt(v int64, p uint) {
	if v < 0 {
		e.addMag(uint64(-v), p, true)
	} else {
		e.addMag(uint64(v), p, false)
	}
}

// addMag adds (or, when neg, subtracts) m·2^p units, for m·2^p below
// 2^192. m spans limbs p/64 and the one above; the carry or borrow
// ripples through the limbs above those.
func (e *Exact) addMag(m uint64, p uint, neg bool) {
	i, off := p/64, p%64
	lo, hi := m<<off, m>>(64-off) // Go defines a 64-bit shift as 0
	var c uint64
	if neg {
		e.w[i], c = bits.Sub64(e.w[i], lo, 0)
		for j := i + 1; j < 4; j++ {
			e.w[j], c = bits.Sub64(e.w[j], hi, c)
			hi = 0
		}
		return
	}
	e.w[i], c = bits.Add64(e.w[i], lo, 0)
	for j := i + 1; j < 4; j++ {
		e.w[j], c = bits.Add64(e.w[j], hi, c)
		hi = 0
	}
}

// magnitude returns |sum| as limbs (with a zero guard limb on top) and
// whether the sum is negative.
func (e *Exact) magnitude() (w [5]uint64, neg bool) {
	c := *e
	c.flush()
	copy(w[:4], c.w[:])
	if int64(c.w[3]) >= 0 {
		return w, false
	}
	var carry uint64 = 1
	for i := 0; i < 4; i++ {
		w[i], carry = bits.Add64(^w[i], 0, carry)
	}
	return w, true
}

// Float64 returns the sum rounded once to the nearest float64, ties to
// even.
func (e *Exact) Float64() float64 {
	w, neg := e.magnitude()
	top := 3
	for top >= 0 && w[top] == 0 {
		top--
	}
	if top < 0 {
		return 0
	}
	// Take the 64 bits from the highest set bit down; any nonzero bit
	// below them sets the window's lowest bit, which lies below float64
	// precision, so the uint64→float64 conversion rounds exactly as the
	// full-width value would.
	shift := top*64 + 63 - bits.LeadingZeros64(w[top]) - 63
	var x uint64
	if shift <= 0 {
		x, shift = w[0], 0
	} else {
		limb, off := shift>>6, uint(shift&63)
		x = w[limb]>>off | w[limb+1]<<(64-off)
		sticky := w[limb]&(1<<off-1) != 0
		for i := 0; i < limb; i++ {
			sticky = sticky || w[i] != 0
		}
		if sticky {
			x |= 1
		}
	}
	f := math.Ldexp(float64(x), shift-exactFrac)
	if neg {
		return -f
	}
	return f
}

// Rat returns the exact sum as a rational number, for verification.
func (e *Exact) Rat() *big.Rat {
	w, neg := e.magnitude()
	words := make([]big.Word, 0, 4*64/bits.UintSize)
	for _, limb := range w[:4] {
		if bits.UintSize == 64 {
			words = append(words, big.Word(limb))
		} else {
			words = append(words, big.Word(uint32(limb)), big.Word(limb>>32))
		}
	}
	num := new(big.Int).SetBits(words)
	if neg {
		num.Neg(num)
	}
	return new(big.Rat).SetFrac(num, new(big.Int).Lsh(big.NewInt(1), exactFrac))
}
