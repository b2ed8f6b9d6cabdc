package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"

	"repro/internal/core"
	"repro/internal/instio"
)

// Canonicalize returns a copy of p with the action list order-normalized:
// actions sorted by (set, kind, cost, name). The TT cost function is
// invariant under action permutation, so two requests that differ only in
// action order share one canonical instance — and one cache slot. Weights
// are positional (weight j belongs to object j) and are left untouched.
func Canonicalize(p *core.Problem) *core.Problem {
	c := p.Clone()
	sort.SliceStable(c.Actions, func(i, j int) bool {
		a, b := c.Actions[i], c.Actions[j]
		if a.Set != b.Set {
			return a.Set < b.Set
		}
		if a.Treatment != b.Treatment {
			return !a.Treatment // tests before treatments
		}
		if a.Cost != b.Cost {
			return a.Cost < b.Cost
		}
		return a.Name < b.Name
	})
	return c
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
