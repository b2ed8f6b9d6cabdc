package core

import (
	"context"
	"math/rand"
	"testing"
)

// compose joins a and b on disjoint objects, b's shifted above a's, with a
// cost-0 test whose set is a's objects. Then C(a ⊔ b) = C(a) + C(b): the
// free test separates the halves, and any procedure restricted to one
// half's faults costs at least that half's optimum.
func compose(a, b *Problem) *Problem {
	p := &Problem{K: a.K + b.K, Weights: append(append([]uint64(nil), a.Weights...), b.Weights...)}
	p.Actions = append(p.Actions, a.Actions...)
	for _, x := range b.Actions {
		x.Set <<= uint(a.K)
		p.Actions = append(p.Actions, x)
	}
	p.Actions = append(p.Actions, Action{Name: "separator", Set: Universe(a.K)})
	return p
}

// TestSolveComposition checks the exact sweep at K up to 20, beyond the
// reach of SolveMemo and the exhaustive search: two halves of K <= 10 each,
// checked against SolveMemo, joined through a cost-0 separator, must cost
// the sum of the halves, on 1, 2 and 4 ranges. The high trials put objects
// in the third byte of the kernel's tables, which no small-K test reaches.
func TestSolveComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 12; trial++ {
		ka, kb := rng.Intn(9)+2, rng.Intn(9)+2 // 2..10 each
		if trial%2 == 0 {
			k := 17 + rng.Intn(4) // 17..20
			ka = k - 10 + rng.Intn(21-k)
			kb = k - ka
		}
		a := randomProblem(rng, ka, rng.Intn(8)+3)
		b := randomProblem(rng, kb, rng.Intn(8)+3)
		var want uint64
		for _, half := range []*Problem{a, b} {
			memo, err := SolveMemo(half)
			if err != nil {
				t.Fatal(err)
			}
			sol, err := Solve(half)
			if err != nil {
				t.Fatal(err)
			}
			if sol.Cost != memo {
				t.Fatalf("trial %d: half of K=%d: Solve %d, SolveMemo %d", trial, half.K, sol.Cost, memo)
			}
			sol.Release()
			want += memo
		}
		p := compose(a, b)
		for _, ranges := range []int{1, 2, 4} {
			sol, err := SolveParallelPooledCtx(context.Background(), p, ranges, nil, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if sol.Cost != want {
				t.Errorf("trial %d: K=%d+%d on %d ranges: C = %d, want C(A)+C(B) = %d",
					trial, ka, kb, ranges, sol.Cost, want)
			}
			sol.Release()
		}
	}
}
