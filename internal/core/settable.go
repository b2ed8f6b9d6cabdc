package core

// SetTable is the heuristics' memo: an open-addressing hash table from
// nonzero uint64 keys — a Set, or a Set with a small tag in the high word —
// to values of type V. It starts at 64 slots, doubles when it is half full
// and holds at most limit keys: once full, Put refuses new keys but still
// updates present ones. Keys are hashed by one multiplication (Fibonacci
// hashing) and probed linearly, each slot holding its key beside its value
// so a hit reads them together; key 0 marks an empty slot, which no caller
// needs since C(∅) = 0 is never memoized. Growth rehashes into a fresh
// slice, so a table makes O(log n) allocations over its life, not one per
// key, and past its first 64 slots holds at most four slots per key.
type SetTable[V any] struct {
	slots []setSlot[V]
	shift uint // 64 − log2(len(slots))
	n     int
	limit int
}

type setSlot[V any] struct {
	key uint64
	val V
}

// NewSetTable returns an empty table that holds at most limit keys.
func NewSetTable[V any](limit int) *SetTable[V] {
	const bits = 6
	return &SetTable[V]{slots: make([]setSlot[V], 1<<bits), shift: 64 - bits, limit: limit}
}

// slot returns k's slot, or the empty slot where k would go.
func (t *SetTable[V]) slot(k uint64) *setSlot[V] {
	mask := len(t.slots) - 1
	for i := int(k * 0x9E3779B97F4A7C15 >> t.shift); ; i = (i + 1) & mask {
		if sl := &t.slots[i]; sl.key == k || sl.key == 0 {
			return sl
		}
	}
}

// Get returns k's value and whether k is present.
func (t *SetTable[V]) Get(k uint64) (V, bool) {
	sl := t.slot(k)
	return sl.val, sl.key != 0
}

// Put stores v under k, which must be nonzero. It stores nothing when k is
// new and the table already holds limit keys.
func (t *SetTable[V]) Put(k uint64, v V) {
	sl := t.slot(k)
	if sl.key == 0 {
		if t.n >= t.limit {
			return
		}
		if 2*(t.n+1) > len(t.slots) {
			t.grow()
			sl = t.slot(k)
		}
		sl.key = k
		t.n++
	}
	sl.val = v
}

// grow doubles the slot count and reinserts every key.
func (t *SetTable[V]) grow() {
	old := t.slots
	t.slots = make([]setSlot[V], 2*len(old))
	t.shift--
	for _, o := range old {
		if o.key != 0 {
			*t.slot(o.key) = o
		}
	}
}
