package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
)

// Solve's sweep is the level-pair layout: one cost plane, p(S) recomputed
// per cell, levels in Gosper order so the plane being written and the
// treatment-heavy reads C[S−T_i] stay in neighboring levels. These tests pin
// it to the classic three-table sweep kept in oracle_test.go.

// TestSolveLevelPairMatchesSolve pins the level-pair sweep bit-identical to
// the classic sweep: full C plane, Cost, every argmin Cell reconstructs, and
// the extracted tree.
func TestSolveLevelPairMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		k := rng.Intn(8) + 2
		p := randomProblem(rng, k, rng.Intn(6)+1)
		wantC, wantChoice := classicSolve(p)
		got, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cost != wantC[len(wantC)-1] {
			t.Fatalf("trial %d: level-pair C(U)=%d, classic %d", trial, got.Cost, wantC[len(wantC)-1])
		}
		if want := int64(len(wantC)-1) * int64(len(p.Actions)+1); got.Ops != want {
			t.Fatalf("trial %d: Ops %d != %d", trial, got.Ops, want)
		}
		for s := range got.C {
			if got.C[s] != wantC[s] {
				t.Fatalf("trial %d: C[%b] level-pair %d, classic %d", trial, s, got.C[s], wantC[s])
			}
		}
		if got.Choice != nil {
			t.Fatalf("trial %d: sweep materialized a Choice plane", trial)
		}
		for s := 1; s < len(wantChoice); s++ {
			if _, rc := cellOf(p, got.C, Set(s)); rc != wantChoice[s] {
				t.Fatalf("trial %d: Cell(%b) choice %d, classic %d", trial, s, rc, wantChoice[s])
			}
		}
		if !got.Adequate() {
			got.Release()
			continue
		}
		gotTree, err := got.Tree(p)
		if err != nil {
			t.Fatal(err)
		}
		if want := classicTree(p, wantChoice, Universe(k)); !reflect.DeepEqual(gotTree, want) {
			t.Fatalf("trial %d: reconstructed tree differs from the classic choice-table tree", trial)
		}
		// The reconstructed tree is a valid optimal procedure by the
		// DP-ignorant oracle too.
		if tc, err := TreeCost(p, gotTree); err != nil || tc != got.Cost {
			t.Fatalf("trial %d: TreeCost=%d err=%v, want %d", trial, tc, err, got.Cost)
		}
		got.Release()
	}
}

// TestSolveLevelPairInadequate: no catch-all treatment, C(U) must be Inf and
// tree and policy extraction must refuse.
func TestSolveLevelPairInadequate(t *testing.T) {
	p := &Problem{
		K:       3,
		Weights: []uint64{1, 1, 1},
		Actions: []Action{{Set: SetOf(0), Cost: 1, Treatment: true}},
	}
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Adequate() {
		t.Fatal("inadequate instance reported adequate")
	}
	if _, err := TreeFromCosts(p, sol.C); err == nil {
		t.Fatal("TreeFromCosts accepted an inadequate instance")
	}
	if _, err := sol.Tree(p); err == nil {
		t.Fatal("Tree accepted an inadequate instance")
	}
	if _, err := TreeFromCosts(p, sol.C[:4]); err == nil {
		t.Fatal("TreeFromCosts accepted a plane of the wrong size")
	}
}

// TestSolveLevelPairCancellation: an already-cancelled context stops the
// sweep before any work.
func TestSolveLevelPairCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := randomProblem(rng, 12, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SolveCtx(ctx, p); err == nil {
		t.Fatal("cancelled context did not stop the sweep")
	}
}

// TestKernelWeightMatchesTable: the kernel's per-byte tables give p(S)
// equal to the classic low-bit recursive PSum table for every subset, at
// sizes on both sides of each table boundary.
func TestKernelWeightMatchesTable(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, k := range []int{1, 7, 8, 9, 12, 16, 17} {
		p := randomProblem(rng, k, 1)
		p.Weights[k-1] = maxInput
		kn, err := Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		psum := make([]uint64, 1<<uint(k))
		for s := 1; s < len(psum); s++ {
			low := s & -s
			psum[s] = satAdd(psum[s&(s-1)], p.Weights[trailing(low)])
		}
		for s := range psum {
			if got := kn.Weight(Set(s)); got != psum[s] {
				t.Fatalf("k=%d: Weight(%b)=%d, PSum table %d", k, s, got, psum[s])
			}
		}
	}
}

func trailing(v int) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// TestSolutionReleaseReuse: released planes are recycled and the solvers
// produce identical answers on dirty pooled memory.
func TestSolutionReleaseReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	k := 8
	p1 := randomProblem(rng, k, 5)
	p2 := randomProblem(rng, k, 5)
	fresh, _ := classicSolve(p2)
	for name, run := range map[string]func() (*Solution, error){
		"seq": func() (*Solution, error) { return Solve(p2) },
		"parallel": func() (*Solution, error) {
			return SolveParallelPooledCtx(context.Background(), p2, 3, nil, nil, nil)
		},
		"batch": func() (*Solution, error) {
			sols, err := SolveBatch([]*Problem{p2, p2.Clone()}, 2)
			if err != nil {
				return nil, err
			}
			sols[1].Release()
			return sols[0], nil
		},
	} {
		// Poison then release: the next same-size solve must not be
		// affected by leftover contents.
		first, err := Solve(p1)
		if err != nil {
			t.Fatal(err)
		}
		for i := range first.C {
			first.C[i] = Inf - 1
		}
		first.Release()
		if first.C != nil {
			t.Fatal("Release did not clear the plane")
		}
		reused, err := run()
		if err != nil {
			t.Fatal(err)
		}
		for s := range fresh {
			if reused.C[s] != fresh[s] {
				t.Fatalf("%s: pooled solve differs from fresh at set %b", name, s)
			}
		}
		reused.Release()
	}
}

// FuzzSolveLevelPair cross-checks the level-pair sweep against the classic
// sweep on arbitrary instances.
func FuzzSolveLevelPair(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(3))
	f.Add(int64(42), uint8(9), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, kb, nb uint8) {
		k := int(kb)%10 + 1
		n := int(nb)%6 + 1
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng, k, n)
		if seed%3 == 0 {
			// Sometimes drop the catch-all so inadequate instances fuzz too.
			p.Actions = p.Actions[:len(p.Actions)-1]
		}
		got, err := Solve(p)
		if err != nil {
			t.Skip()
		}
		wantC, wantChoice := classicSolve(p)
		for s := range got.C {
			if got.C[s] != wantC[s] {
				t.Fatalf("C[%b]: level-pair %d, classic %d", s, got.C[s], wantC[s])
			}
		}
		for s := 1; s < len(wantChoice); s++ {
			if _, rc := cellOf(p, got.C, Set(s)); rc != wantChoice[s] {
				t.Fatalf("Cell(%b) choice %d, classic %d", s, rc, wantChoice[s])
			}
		}
	})
}
