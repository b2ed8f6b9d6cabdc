package core

import (
	"math"
	"math/rand"
	"testing"
)

func TestLookaheadBracketsOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 30; trial++ {
		p := randomProblem(rng, rng.Intn(3)+3, rng.Intn(6)+3)
		sol, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range []int{0, 1, 2} {
			c, err := LookaheadCost(p, d)
			if err != nil {
				t.Fatalf("trial %d depth %d: %v", trial, d, err)
			}
			if c < sol.Cost {
				t.Fatalf("trial %d depth %d: lookahead %d beats optimum %d", trial, d, c, sol.Cost)
			}
		}
	}
}

// TestLookaheadDeepIsExact: with depth >= k every branch is expanded to
// empty sets (each applicable action strictly shrinks S), so the policy is
// the exact DP, at depth k and at any depth past it.
func TestLookaheadDeepIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	for trial := 0; trial < 25; trial++ {
		k := rng.Intn(3) + 3
		p := randomProblem(rng, k, rng.Intn(6)+3)
		sol, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range []int{k, math.MaxInt} {
			c, err := LookaheadCost(p, d)
			if err != nil {
				t.Fatal(err)
			}
			if c != sol.Cost {
				t.Fatalf("trial %d: depth-%d lookahead %d != optimum %d", trial, d, c, sol.Cost)
			}
		}
	}
}

// TestLookaheadImprovesOnHardGreedyInstance constructs a trap: a cheap but
// useless-looking probe unlocks a very cheap treatment, which the myopic
// score cannot see but one step of lookahead can.
func TestLookaheadImprovesOnHardGreedyInstance(t *testing.T) {
	p := &Problem{
		K:       4,
		Weights: []uint64{10, 10, 1, 1},
		Actions: []Action{
			// The trap: treating everything at once looks efficient.
			{Name: "blanket", Set: SetOf(0, 1, 2, 3), Cost: 9, Treatment: true},
			// The right play: split heavy from light, then cheap treatments.
			{Name: "split", Set: SetOf(0, 1), Cost: 1},
			{Name: "fix-heavy", Set: SetOf(0, 1), Cost: 2, Treatment: true},
			{Name: "fix-light", Set: SetOf(2, 3), Cost: 2, Treatment: true},
		},
	}
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	deep, err := LookaheadCost(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if deep != sol.Cost {
		t.Fatalf("deep lookahead %d != optimum %d", deep, sol.Cost)
	}
	shallow, err := LookaheadCost(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if shallow < sol.Cost {
		t.Fatalf("depth-0 cost %d below optimum %d", shallow, sol.Cost)
	}
}

func TestLookaheadErrors(t *testing.T) {
	p := randomProblem(rand.New(rand.NewSource(57)), 3, 3)
	if _, err := LookaheadTree(p, -1); err == nil {
		t.Error("negative depth accepted")
	}
	if _, err := LookaheadTree(&Problem{K: 0}, 1); err == nil {
		t.Error("invalid problem accepted")
	}
	inadequate := &Problem{
		K:       2,
		Weights: []uint64{1, 1},
		Actions: []Action{{Set: SetOf(0), Cost: 1, Treatment: true}, {Set: SetOf(0), Cost: 1}},
	}
	if _, err := LookaheadTree(inadequate, 1); err == nil {
		t.Error("inadequate instance accepted")
	}
}

// TestLookaheadTreeIsValid: the produced tree passes the independent
// evaluator on every workload-style instance.
func TestLookaheadTreeIsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	for trial := 0; trial < 20; trial++ {
		p := randomProblem(rng, 5, 6)
		tree, err := LookaheadTree(p, 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := TreeCost(p, tree); err != nil {
			t.Fatalf("trial %d: invalid tree: %v", trial, err)
		}
	}
}

func BenchmarkLookaheadDepth2K12(b *testing.B) {
	p := randomProblem(rand.New(rand.NewSource(59)), 12, 14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LookaheadCost(p, 2); err != nil {
			b.Fatal(err)
		}
	}
}
