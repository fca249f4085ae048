package bdd

// table is a lossless open-addressed hash table from a triple of int32
// keys to an int32 value. The Manager keeps two: the unique table maps
// (level, low, high) to a node's Ref, and the ITE table maps (f, g, h) to
// ITE's result. Nothing is ever evicted, so a construction makes exactly
// the nodes and cache misses it would make with unbounded maps.
//
// Each slot is one 16-byte entry. The capacity is a power of two, the
// home slot is read from the high bits of a multiplicative hash, and
// collisions probe linearly. The table doubles before it is more than
// three quarters full, so a probe always reaches an empty slot.
type table struct {
	slots []entry
	shift uint // 64 - log2(len(slots))
	n     int  // occupied slots
}

// entry holds a key and its value plus one; a zero v marks an empty slot.
type entry struct {
	a, b, c, v int32
}

const tableMinBits = 8

func newTable() table {
	return table{slots: make([]entry, 1<<tableMinBits), shift: 64 - tableMinBits}
}

// home returns the first slot probed for key (a, b, c).
func (t *table) home(a, b, c int32) int {
	h := uint64(uint32(a))<<32 | uint64(uint32(b))
	h = (h ^ uint64(uint32(c))*0x9e3779b97f4a7c15) * 0xbf58476d1ce4e5b9
	return int(h >> t.shift)
}

// find returns the slot holding key (a, b, c) and true, or the empty
// slot where the key belongs and false.
func (t *table) find(a, b, c int32) (int, bool) {
	mask := len(t.slots) - 1
	i := t.home(a, b, c)
	for probes := 0; probes < len(t.slots); probes++ {
		e := &t.slots[i]
		if e.v == 0 {
			return i, false
		}
		if e.a == a && e.b == b && e.c == c {
			return i, true
		}
		i = (i + 1) & mask
	}
	// Unreachable: the table is never more than three quarters full.
	return -1, false
}

// value returns the value stored in occupied slot i.
func (t *table) value(i int) int32 { return t.slots[i].v - 1 }

// insert stores key (a, b, c) with value v in slot i, the empty slot find
// returned for that key with no insert in between, and grows the table
// when it passes three quarters full.
func (t *table) insert(i int, a, b, c, v int32) {
	t.slots[i] = entry{a: a, b: b, c: c, v: v + 1}
	t.n++
	if 4*t.n > 3*len(t.slots) {
		t.grow()
	}
}

// grow doubles the capacity and rehashes every entry.
func (t *table) grow() {
	old := t.slots
	t.slots = make([]entry, 2*len(old))
	t.shift--
	mask := len(t.slots) - 1
	for _, e := range old {
		if e.v == 0 {
			continue
		}
		i := t.home(e.a, e.b, e.c)
		for t.slots[i].v != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = e
	}
}
