package serve

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/instio"
)

// Canonicalize returns a copy of p with the action list order-normalized:
// actions sorted by (set, kind, cost, name). The TT cost function is
// invariant under action permutation, so two requests that differ only in
// action order share one canonical instance — and one cache slot. Weights
// are positional (weight j belongs to object j) and are left untouched.
// p itself is not changed.
func Canonicalize(p *core.Problem) *core.Problem { return canonicalize(p.Clone()) }

// canonicalize sorts p's actions into Canonicalize's order in place and
// returns p. The handlers own the Problem they just parsed, so they call it
// directly instead of paying for a clone.
func canonicalize(p *core.Problem) *core.Problem {
	slices.SortStableFunc(p.Actions, func(a, b core.Action) int {
		if r := cmp.Compare(a.Set, b.Set); r != 0 {
			return r
		}
		if a.Treatment != b.Treatment {
			if a.Treatment {
				return 1 // tests before treatments
			}
			return -1
		}
		if r := cmp.Compare(a.Cost, b.Cost); r != 0 {
			return r
		}
		return strings.Compare(a.Name, b.Name)
	})
	return p
}

// Hash returns the canonical instance hash: SHA-256 over the instio wire
// form of the canonicalized instance, hex-encoded. Hashing the wire bytes
// ties the key to the exact format clients speak.
func Hash(canon *core.Problem) (string, error) {
	var buf [8 << 10]byte // fits a k = 16 instance's wire form; a larger one spills to the heap
	b, err := instio.Append(buf[:0], canon, "")
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
