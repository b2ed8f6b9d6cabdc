package core

import (
	"context"
	"math/rand"
	"testing"
)

// repriced returns a same-lattice variant of p: identical (Set, Treatment)
// per index, fresh random costs and weights.
func repriced(rng *rand.Rand, p *Problem) *Problem {
	q := p.Clone()
	for j := range q.Weights {
		q.Weights[j] = uint64(rng.Intn(20) + 1)
	}
	for i := range q.Actions {
		q.Actions[i].Cost = uint64(rng.Intn(30) + 1)
	}
	return q
}

// TestSolveBatchMatchesSolo pins the batched sweep bit-identical to solving
// every instance alone, across group sizes and worker counts (0 selecting
// GOMAXPROCS).
func TestSolveBatchMatchesSolo(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		k := rng.Intn(7) + 2
		base := randomProblem(rng, k, rng.Intn(5)+1)
		G := rng.Intn(5) + 1
		group := make([]*Problem, G)
		group[0] = base
		for g := 1; g < G; g++ {
			group[g] = repriced(rng, base)
		}
		workers := rng.Intn(5)
		sols, err := SolveBatchCtx(context.Background(), group, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(sols) != G {
			t.Fatalf("trial %d: %d solutions for %d instances", trial, len(sols), G)
		}
		for g, p := range group {
			want, err := Solve(p)
			if err != nil {
				t.Fatal(err)
			}
			if sols[g].Cost != want.Cost {
				t.Fatalf("trial %d instance %d: batch C(U)=%d, solo %d", trial, g, sols[g].Cost, want.Cost)
			}
			for s := range want.C {
				if sols[g].C[s] != want.C[s] {
					t.Fatalf("trial %d instance %d: C[%b] batch %d, solo %d", trial, g, s, sols[g].C[s], want.C[s])
				}
			}
			if want.Adequate() {
				bt, err := TreeFromCosts(p, sols[g].C)
				if err != nil {
					t.Fatal(err)
				}
				if tc, err := TreeCost(p, bt); err != nil || tc != want.Cost {
					t.Fatalf("trial %d instance %d: batch tree cost %d err=%v, want %d", trial, g, tc, err, want.Cost)
				}
			}
			sols[g].Release()
			want.Release()
		}
	}
}

// TestSolveBatchMixedGroups: members need not share a lattice. A batch
// whose members differ in an action's set, in a treatment flag, or in K is
// solved bit-identically to solving each member alone; only an empty batch
// is refused.
func TestSolveBatchMixedGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randomProblem(rng, 4, 3)
	b := a.Clone()
	b.Actions[0].Set ^= 1 // different lattice
	c := a.Clone()
	c.Actions[0].Treatment = !c.Actions[0].Treatment
	for _, group := range [][]*Problem{{a, b}, {a, c}, {a, randomProblem(rng, 7, 5), b, c}} {
		for _, workers := range []int{1, 2, 5} {
			sols, err := SolveBatchCtx(context.Background(), group, workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			for g, p := range group {
				want, err := Solve(p)
				if err != nil {
					t.Fatal(err)
				}
				if sols[g].Cost != want.Cost || len(sols[g].C) != len(want.C) {
					t.Fatalf("%d workers, instance %d: batch C(U)=%d over %d sets, solo %d over %d",
						workers, g, sols[g].Cost, len(sols[g].C), want.Cost, len(want.C))
				}
				for s := range want.C {
					if sols[g].C[s] != want.C[s] {
						t.Fatalf("%d workers, instance %d: C[%b] batch %d, solo %d", workers, g, s, sols[g].C[s], want.C[s])
					}
				}
				sols[g].Release()
				want.Release()
			}
		}
	}
	if _, err := SolveBatchCtx(context.Background(), nil, 1, nil); err == nil {
		t.Fatal("empty batch accepted")
	}
}

// TestSolveBatchCancellation: cancellation mid-sweep surfaces the context
// error instead of a partial result.
func TestSolveBatchCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	base := randomProblem(rng, 14, 8)
	group := []*Problem{base, repriced(rng, base), repriced(rng, base)}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SolveBatchCtx(ctx, group, 2, nil); err == nil {
		t.Fatal("cancelled batch returned a result")
	}
}

// FuzzSolveBatch cross-checks batched solving against solo solves on
// arbitrary lattices and group sizes. Besides re-priced copies of the first
// member, a group may hold unrelated problems of another K.
func FuzzSolveBatch(f *testing.F) {
	f.Add(int64(3), uint8(4), uint8(2))
	f.Add(int64(77), uint8(6), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, kb, gb uint8) {
		k := int(kb)%7 + 1
		G := int(gb)%4 + 1
		rng := rand.New(rand.NewSource(seed))
		base := randomProblem(rng, k, rng.Intn(4)+1)
		if seed%3 == 0 {
			base.Actions = base.Actions[:len(base.Actions)-1] // allow inadequate
		}
		group := make([]*Problem, G)
		group[0] = base
		for g := 1; g < G; g++ {
			if rng.Intn(2) == 0 {
				group[g] = repriced(rng, base)
			} else {
				group[g] = randomProblem(rng, (k+g)%7+1, rng.Intn(4)+1)
			}
		}
		sols, err := SolveBatchCtx(context.Background(), group, int(seed%3)+1, nil)
		if err != nil {
			t.Skip()
		}
		for g, p := range group {
			want, err := Solve(p)
			if err != nil {
				t.Fatal(err)
			}
			if len(sols[g].C) != len(want.C) {
				t.Fatalf("instance %d: batch plane has %d sets, solo %d", g, len(sols[g].C), len(want.C))
			}
			for s := range want.C {
				if sols[g].C[s] != want.C[s] {
					t.Fatalf("instance %d: C[%b] batch %d, solo %d", g, s, sols[g].C[s], want.C[s])
				}
			}
		}
	})
}
