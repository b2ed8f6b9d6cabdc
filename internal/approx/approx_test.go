package approx

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/certify"
	"repro/internal/core"
	"repro/internal/workload"
)

// randomProblem builds a random instance; with a catch-all treatment it is
// always adequate, without one it may be inadequate.
func randomProblem(rng *rand.Rand, k, nActions int, catchAll bool) *core.Problem {
	p := &core.Problem{K: k, Weights: make([]uint64, k)}
	for j := range p.Weights {
		p.Weights[j] = uint64(rng.Intn(20) + 1)
	}
	u := uint32(core.Universe(k))
	for i := 0; i < nActions; i++ {
		p.Actions = append(p.Actions, core.Action{
			Set:       core.Set(rng.Intn(int(u))+1) & core.Set(u),
			Cost:      uint64(rng.Intn(30) + 1),
			Treatment: rng.Intn(2) == 0,
		})
	}
	if catchAll {
		p.Actions = append(p.Actions, core.Action{Name: "catch-all", Set: core.Universe(k), Cost: 500, Treatment: true})
	} else {
		// Validation requires at least one treatment; a strict-subset one
		// keeps inadequate instances possible.
		p.Actions = append(p.Actions, core.Action{
			Set: core.Set(rng.Intn(int(u)) + 1), Cost: uint64(rng.Intn(50) + 1), Treatment: true})
	}
	return p
}

// TestDifferentialExhaustive is the satellite-3 sweep: for instances across
// k = 2..10 — random, and every named workload family — the greedy portfolio
// must never beat the exact optimum, branch-and-bound run to completion must
// hit it exactly, the anytime lower bound must agree with the certifier's and
// never exceed the optimum, and every emitted result must pass independent
// gap certification.
func TestDifferentialExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(1986))
	var problems []*core.Problem
	for k := 2; k <= 10; k++ {
		for trial := 0; trial < 12; trial++ {
			problems = append(problems, randomProblem(rng, k, 2+rng.Intn(2*k), trial%3 != 0))
		}
		problems = append(problems,
			workload.Random(int64(k), k, k, k),
			workload.MedicalDiagnosis(int64(k), k),
			workload.SystematicBiology(int64(k), k),
			workload.BinaryTestingUniform(k, 7),
		)
	}

	ctx := context.Background()
	solved := 0
	for _, p := range problems {
		sol, err := core.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Solve(ctx, p, Options{})
		if err != nil {
			t.Fatalf("approx.Solve failed on k=%d: %v", p.K, err)
		}

		if !sol.Adequate() {
			if res.Adequate {
				t.Fatalf("k=%d: exact says inadequate, approx claims adequate", p.K)
			}
			if res.Cost != core.Inf || res.Tree != nil || res.Uncovered < 0 {
				t.Fatalf("k=%d: malformed inadequate result %+v", p.K, res)
			}
			if rep := certify.CheckInadequate(p); !rep.OK() {
				t.Fatalf("k=%d: inadequacy witness fails certification: %v", p.K, rep.Err())
			}
			continue
		}
		solved++

		// The anytime bound must match the certifier's independent derivation
		// and bound the true optimum from below.
		if res.LowerBound != certify.LowerBound(p) {
			t.Fatalf("k=%d: approx bound %d != certify bound %d", p.K, res.LowerBound, certify.LowerBound(p))
		}
		if res.LowerBound > sol.Cost {
			t.Fatalf("k=%d: lower bound %d exceeds optimum %d", p.K, res.LowerBound, sol.Cost)
		}

		// Default options give the B&B a generous budget; at k ≤ 10 it always
		// completes, so the answer must be the exact optimum.
		if !res.Exact {
			t.Fatalf("k=%d: branch-and-bound did not complete within default budget (nodes=%d)", p.K, res.Nodes)
		}
		if res.Cost != sol.Cost {
			t.Fatalf("k=%d: converged cost %d != optimum %d (policy %s)", p.K, res.Cost, sol.Cost, res.Policy)
		}

		// The emitted quadruple must survive independent re-pricing.
		if _, err := certify.CertifyGap(p, res.Tree, res.Cost, res.GapMilli); err != nil {
			t.Fatalf("k=%d: emitted result fails gap certification: %v", p.K, err)
		}

		// The greedy-only answer (B&B disabled) must be valid and ≥ optimum,
		// and must certify at its own gap.
		g, err := Solve(ctx, p, Options{NodeBudget: -1})
		if err != nil {
			t.Fatalf("k=%d: greedy-only solve failed: %v", p.K, err)
		}
		if g.Cost < sol.Cost {
			t.Fatalf("k=%d: greedy cost %d beats optimum %d — re-pricing is broken", p.K, g.Cost, sol.Cost)
		}
		if _, err := certify.CertifyGap(p, g.Tree, g.Cost, g.GapMilli); err != nil {
			t.Fatalf("k=%d: greedy result fails gap certification: %v", p.K, err)
		}
	}
	if solved < 60 {
		t.Fatalf("sweep exercised only %d adequate instances; want >= 60", solved)
	}
}

func TestSolveInadequate(t *testing.T) {
	p := &core.Problem{
		K:       3,
		Weights: []uint64{1, 2, 3},
		Actions: []core.Action{
			{Set: core.SetOf(0, 1), Cost: 1, Treatment: true},
			{Set: core.SetOf(2), Cost: 1, Treatment: false},
		},
	}
	res, err := Solve(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Adequate || res.Uncovered != 2 || res.Cost != core.Inf || !res.Exact {
		t.Fatalf("want inadequate witness for object 2, got %+v", res)
	}
}

func TestAnytimeDeadline(t *testing.T) {
	// A hard instance with an immediate deadline must still return a valid
	// certified incumbent — the anytime contract: degrade, never fail.
	p := workload.Random(11, 14, 14, 10)
	res, err := Solve(context.Background(), p, Options{Deadline: time.Nanosecond, NodeBudget: 1 << 40})
	if err != nil {
		t.Fatalf("deadline expiry must not fail: %v", err)
	}
	if res.Tree == nil || res.Cost == core.Inf {
		t.Fatalf("no incumbent under deadline: %+v", res)
	}
	if _, err := certify.CertifyGap(p, res.Tree, res.Cost, res.GapMilli); err != nil {
		t.Fatalf("deadline incumbent fails certification: %v", err)
	}
}

func TestAnytimeNodeBudget(t *testing.T) {
	p := workload.Random(5, 13, 13, 9)
	res, err := Solve(context.Background(), p, Options{NodeBudget: 8})
	if err != nil {
		t.Fatalf("node-budget expiry must not fail: %v", err)
	}
	if res.Tree == nil {
		t.Fatal("no incumbent under node budget")
	}
	if res.Nodes > 8+1 {
		t.Fatalf("expanded %d nodes past budget 8", res.Nodes)
	}
	if _, err := certify.CertifyGap(p, res.Tree, res.Cost, res.GapMilli); err != nil {
		t.Fatalf("budgeted incumbent fails certification: %v", err)
	}
}

func TestTargetGapStopsEarly(t *testing.T) {
	// A very loose target is met by the greedy incumbent alone, so no
	// branch-and-bound nodes should be expanded.
	p := workload.MedicalDiagnosis(3, 9)
	res, err := Solve(context.Background(), p, Options{TargetMilli: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes != 0 {
		t.Fatalf("loose target still expanded %d B&B nodes", res.Nodes)
	}
	if res.GapMilli > 1_000_000 {
		t.Fatalf("gap %d exceeds the requested target", res.GapMilli)
	}
}

func TestCancelledBeforeIncumbent(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Solve(ctx, workload.Random(1, 6, 4, 4), Options{}); err == nil {
		t.Fatal("pre-incumbent cancellation must surface the context error")
	}
}

// TestBeyondCoreK exercises the solvers past core.Solve's practical range
// shape-wise: a k=22 instance must produce a certified greedy answer quickly.
func TestBeyondCoreK(t *testing.T) {
	p := workload.Oversized(9, 22)
	start := time.Now()
	res, err := Solve(context.Background(), p, Options{NodeBudget: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tree == nil || !res.Adequate {
		t.Fatalf("oversized instance got no tree: %+v", res)
	}
	if _, err := certify.CertifyGap(p, res.Tree, res.Cost, res.GapMilli); err != nil {
		t.Fatalf("oversized answer fails certification: %v", err)
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Fatalf("greedy at k=22 took %v; the anytime path must stay polynomial", d)
	}
}

// TestBranchAndBoundAllocs bounds a search's allocations by a constant: on
// an oversized K = 24 instance whose branch-and-bound expands thousands of
// nodes, Solve must allocate far fewer objects than it expands nodes. The
// memo tables grow by doubling and every node's candidates share one stack,
// so what remains is the kernel, the greedy and extracted trees and
// O(log n) table growths, none of which scales with the node count.
func TestBranchAndBoundAllocs(t *testing.T) {
	p := workload.Oversized(24, 24)
	res, err := Solve(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes < 1000 {
		t.Fatalf("search expanded %d nodes, want at least 1000", res.Nodes)
	}
	const maxAllocs = 400
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Solve(context.Background(), p, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d nodes, %.0f allocations per solve", res.Nodes, allocs)
	if allocs > maxAllocs {
		t.Fatalf("Solve made %.0f allocations for %d nodes, want at most %d", allocs, res.Nodes, maxAllocs)
	}
}
