package core

import "testing"

// FuzzSetTable replays a fuzzer-chosen sequence of Gets and Puts on a
// SetTable and on a Go map that models it, and requires the two to agree
// after every operation on the key's value and the key count, so a Put
// must store nothing exactly when its key is new and the table already
// holds limit keys. Keys are drawn from 1024 nonzero values, some tagged in
// the high word as the lookahead's (set, depth) keys are, so long inputs
// grow the table past its first 64 slots and short ones update keys in
// place.
func FuzzSetTable(f *testing.F) {
	f.Add(uint16(8), []byte{1, 1, 7, 1, 2, 8, 0, 1, 0, 3, 1, 9, 0, 1, 0, 0, 9, 0})
	f.Fuzz(func(t *testing.T, limit uint16, ops []byte) {
		lim := int(limit % 512)
		tab := NewSetTable[uint64](lim)
		ref := make(map[uint64]uint64)
		for ; len(ops) >= 3; ops = ops[3:] {
			op, k, v := ops[0], ops[1], uint64(ops[2])
			key := uint64(k) + 1 | uint64(op>>1&3)<<32
			if op&1 == 1 {
				if _, has := ref[key]; has || len(ref) < lim {
					ref[key] = v
				}
				tab.Put(key, v)
			}
			want, has := ref[key]
			if got, ok := tab.Get(key); got != want || ok != has {
				t.Fatalf("Get(%#x) = %d, %t after op %d; want %d, %t", key, got, ok, op, want, has)
			}
			if tab.n != len(ref) {
				t.Fatalf("table holds %d keys after op %d on %#x, want %d of at most %d", tab.n, op, key, len(ref), lim)
			}
		}
		for key, want := range ref {
			if got, ok := tab.Get(key); !ok || got != want {
				t.Fatalf("Get(%#x) = %d, %t at the end; want %d, true", key, got, ok, want)
			}
		}
	})
}
