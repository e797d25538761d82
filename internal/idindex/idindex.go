// Package idindex is the id → row index shared by the columnar user
// store and the attention matrix: an open-addressing hash table whose
// slots hold int32 row indices into a column of int64 ids the caller
// owns. The key is not duplicated in the table — probes compare against
// ids[row] — so the index costs 4 bytes per slot. Probing is linear from
// the Splitmix64 hash of the id and the load stays at most 3/4. Rows are
// only ever added, so lookups need no tombstones.
//
// Every method that probes takes the ids column; it must hold the id of
// every indexed row. A Table is not safe for concurrent mutation.
package idindex

const (
	minSize = 64 // power of two; small enough that tests exercise growth
	empty   = -1
)

// Splitmix64 is the standard 64-bit finalizer. It spreads sequential
// user ids across the table, and callers use it for any deterministic
// per-id hash (the attention tie-break).
func Splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Table is the index. The zero value is an empty table; call Reserve
// before the first Insert.
type Table struct {
	slots []int32 // row index or empty; len is zero or a power of two
	mask  uint64
}

// Slots returns the table size: 0 until the first Reserve, then a power
// of two.
func (t *Table) Slots() int { return len(t.slots) }

// Row returns the row of id, or (-1, false) when id is not indexed.
func (t *Table) Row(ids []int64, id int64) (int32, bool) {
	if len(t.slots) == 0 {
		return -1, false
	}
	i := Splitmix64(uint64(id)) & t.mask
	for {
		r := t.slots[i]
		if r == empty {
			return -1, false
		}
		if ids[r] == id {
			return r, true
		}
		i = (i + 1) & t.mask
	}
}

// Reserve makes the table hold rows rows at a load of at most 3/4,
// doubling it (at least minSize slots) and reinserting what it held.
func (t *Table) Reserve(ids []int64, rows int) {
	size := max(len(t.slots), minSize)
	for rows*4 > size*3 {
		size *= 2
	}
	if size == len(t.slots) {
		return
	}
	old := t.slots
	t.slots = make([]int32, size)
	for i := range t.slots {
		t.slots[i] = empty
	}
	t.mask = uint64(size - 1)
	for _, r := range old {
		if r == empty {
			continue
		}
		i := Splitmix64(uint64(ids[r])) & t.mask
		for t.slots[i] != empty {
			i = (i + 1) & t.mask
		}
		t.slots[i] = r
	}
}

// Insert indexes row, whose id is ids[row], and reports true. When the
// id is indexed already it reports false and leaves the table unchanged.
// The table must have room (Reserve).
func (t *Table) Insert(ids []int64, row int32) bool {
	id := ids[row]
	i := Splitmix64(uint64(id)) & t.mask
	for t.slots[i] != empty {
		if ids[t.slots[i]] == id {
			return false
		}
		i = (i + 1) & t.mask
	}
	t.slots[i] = row
	return true
}
