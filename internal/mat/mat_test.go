package mat

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestNewShapeAndZero(t *testing.T) {
	m := New(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("shape = %dx%d, want 3x4", m.Rows(), m.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Errorf("New matrix not zero at (%d,%d)", i, j)
			}
		}
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	for _, sh := range [][2]int{{0, 1}, {1, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", sh[0], sh[1])
				}
			}()
			New(sh[0], sh[1])
		}()
	}
}

func TestSetAtAdd(t *testing.T) {
	m := New(2, 2)
	m.Set(0, 1, 5)
	m.Add(0, 1, 2.5)
	if got := m.At(0, 1); got != 7.5 {
		t.Errorf("At(0,1) = %v, want 7.5", got)
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	m := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("At out of range did not panic")
		}
	}()
	m.At(2, 0)
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(2, 1) != 6 || m.At(0, 0) != 1 {
		t.Errorf("FromRows values wrong: %v %v", m.At(2, 1), m.At(0, 0))
	}
}

func TestFromRowsRagged(t *testing.T) {
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged FromRows did not error")
	}
	if _, err := FromRows(nil); err == nil {
		t.Error("empty FromRows did not error")
	}
}

func TestRowColCopySemantics(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	r := m.Row(0)
	r[0] = 99
	if m.At(0, 0) != 1 {
		t.Error("Row should copy, matrix mutated")
	}
	v := m.RowView(1)
	v[0] = 42
	if m.At(1, 0) != 42 {
		t.Error("RowView should alias storage")
	}
}
func TestNormalizeRows(t *testing.T) {
	m, _ := FromRows([][]float64{{2, 2}, {0, 0}, {1, 3}})
	zero := m.NormalizeRows()
	if len(zero) != 1 || zero[0] != 1 {
		t.Errorf("zeroRows = %v, want [1]", zero)
	}
	if m.At(0, 0) != 0.5 || m.At(2, 1) != 0.75 {
		t.Errorf("normalize wrong: %v", m.data)
	}
	if m.At(1, 0) != 0 {
		t.Error("zero row was modified")
	}
}

func TestNormalizeRowsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 5))
		m := randMatrix(r, 1+r.IntN(10), 1+r.IntN(6))
		// Make entries non-negative counts.
		for i := 0; i < m.Rows(); i++ {
			row := m.RowView(i)
			for j := range row {
				row[j] = math.Abs(row[j])
			}
		}
		zero := m.NormalizeRows()
		zeroSet := map[int]bool{}
		for _, z := range zero {
			zeroSet[z] = true
		}
		for i := 0; i < m.Rows(); i++ {
			if zeroSet[i] {
				continue
			}
			sum := 0.0
			for _, v := range m.RowView(i) {
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestClone(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2}})
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Error("Clone aliases original")
	}
}

func randMatrix(r *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.data {
		m.data[i] = r.Float64()*10 - 5
	}
	return m
}
