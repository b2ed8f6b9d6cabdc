package core

import (
	"context"
	"errors"
	"math/bits"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// randomProblem builds a random, usually adequate instance.
func randomProblem(rng *rand.Rand, k, nActions int) *Problem {
	p := &Problem{K: k, Weights: make([]uint64, k)}
	for j := range p.Weights {
		p.Weights[j] = uint64(rng.Intn(20) + 1)
	}
	u := uint32(Universe(k))
	for i := 0; i < nActions; i++ {
		p.Actions = append(p.Actions, Action{
			Set:       Set(rng.Intn(int(u))+1) & Set(u),
			Cost:      uint64(rng.Intn(30) + 1),
			Treatment: rng.Intn(2) == 0,
		})
	}
	// Guarantee adequacy with a catch-all treatment.
	p.Actions = append(p.Actions, Action{Name: "catch-all", Set: Universe(k), Cost: 500, Treatment: true})
	return p
}

func TestSetBasics(t *testing.T) {
	s := SetOf(0, 2, 5)
	if !s.Has(0) || !s.Has(2) || !s.Has(5) || s.Has(1) {
		t.Fatal("membership wrong")
	}
	if s.Size() != 3 {
		t.Fatalf("Size = %d", s.Size())
	}
	if got := s.String(); got != "{0,2,5}" {
		t.Fatalf("String = %q", got)
	}
	objs := s.Objects()
	if len(objs) != 3 || objs[0] != 0 || objs[1] != 2 || objs[2] != 5 {
		t.Fatalf("Objects = %v", objs)
	}
	if Universe(4) != 0b1111 {
		t.Fatal("Universe wrong")
	}
	if (Set(0)).String() != "{}" {
		t.Fatal("empty set string")
	}
}

func TestValidateErrors(t *testing.T) {
	good := &Problem{
		K:       2,
		Weights: []uint64{1, 1},
		Actions: []Action{{Set: SetOf(0, 1), Cost: 1, Treatment: true}},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid problem rejected: %v", err)
	}
	cases := map[string]*Problem{
		"zero K":          {K: 0, Weights: nil, Actions: good.Actions},
		"huge K":          {K: MaxK + 1, Weights: make([]uint64, MaxK+1), Actions: good.Actions},
		"weight mismatch": {K: 2, Weights: []uint64{1}, Actions: good.Actions},
		"no actions":      {K: 2, Weights: []uint64{1, 1}},
		"no treatments": {K: 2, Weights: []uint64{1, 1},
			Actions: []Action{{Set: SetOf(0), Cost: 1}}},
		"action outside universe": {K: 2, Weights: []uint64{1, 1},
			Actions: []Action{{Set: SetOf(3), Cost: 1, Treatment: true}}},
		"oversized weight": {K: 2, Weights: []uint64{maxInput + 1, 1}, Actions: good.Actions},
		"oversized cost": {K: 2, Weights: []uint64{1, 1},
			Actions: []Action{{Set: SetOf(0, 1), Cost: maxInput + 1, Treatment: true}}},
	}
	for name, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid problem", name)
		}
	}
}

func TestProblemCounts(t *testing.T) {
	p := &Problem{K: 3, Weights: []uint64{1, 2, 3}, Actions: []Action{
		{Set: SetOf(0), Cost: 1},
		{Set: SetOf(1), Cost: 1, Treatment: true},
		{Set: SetOf(2), Cost: 1, Treatment: true},
	}}
	if p.NumTests() != 1 || p.NumTreatments() != 2 {
		t.Fatalf("counts: %d tests %d treatments", p.NumTests(), p.NumTreatments())
	}
	if p.TotalWeight() != 6 {
		t.Fatalf("TotalWeight = %d", p.TotalWeight())
	}
	c := p.Clone()
	c.Weights[0] = 99
	c.Actions[0].Cost = 99
	if p.Weights[0] != 1 || p.Actions[0].Cost != 1 {
		t.Fatal("Clone not deep")
	}
}

// TestSolveHandComputed verifies the DP against a fully hand-worked k=2
// instance.
func TestSolveHandComputed(t *testing.T) {
	p := &Problem{
		K:       2,
		Weights: []uint64{1, 1},
		Actions: []Action{
			{Name: "treat-both", Set: SetOf(0, 1), Cost: 3, Treatment: true},
			{Name: "treat-0", Set: SetOf(0), Cost: 1, Treatment: true},
			{Name: "treat-1", Set: SetOf(1), Cost: 1, Treatment: true},
			{Name: "test-0", Set: SetOf(0), Cost: 1},
		},
	}
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	// C({0}): treat-both 3·1=3, treat-0 1·1=1 → 1. Same for {1}.
	if sol.C[0b01] != 1 || sol.C[0b10] != 1 {
		t.Fatalf("singletons: C=%d,%d want 1,1", sol.C[0b01], sol.C[0b10])
	}
	// C(U): treat-both 6; treat-0 2+C({1})=3; treat-1 3; test 2+1+1=4 → 3.
	if sol.Cost != 3 {
		t.Fatalf("C(U) = %d, want 3", sol.Cost)
	}
	if sol.C[0] != 0 {
		t.Fatal("C(empty) != 0")
	}
	_, root := Cell(p, sol.C, 0b11)
	chosen := p.Actions[root]
	if !chosen.Treatment || chosen.Set.Size() != 1 {
		t.Fatalf("optimal root should be a singleton treatment, got %+v", chosen)
	}
}

func TestSolveSingletonUniverse(t *testing.T) {
	p := &Problem{
		K:       1,
		Weights: []uint64{5},
		Actions: []Action{
			{Name: "a", Set: SetOf(0), Cost: 7, Treatment: true},
			{Name: "b", Set: SetOf(0), Cost: 3, Treatment: true},
			{Name: "useless-test", Set: SetOf(0), Cost: 1},
		},
	}
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != 15 { // min(7,3)·5
		t.Fatalf("Cost = %d, want 15", sol.Cost)
	}
}

func TestInadequateInstance(t *testing.T) {
	// Object 2 is covered by no treatment.
	p := &Problem{
		K:       3,
		Weights: []uint64{1, 1, 1},
		Actions: []Action{
			{Set: SetOf(0, 1), Cost: 1, Treatment: true},
			{Set: SetOf(0, 2), Cost: 1},
		},
	}
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Adequate() {
		t.Fatal("inadequate instance reported adequate")
	}
	if _, err := sol.Tree(p); err == nil {
		t.Fatal("Tree succeeded on inadequate instance")
	}
	if !strings.Contains(sol.String(), "inadequate") {
		t.Errorf("String = %q", sol.String())
	}
}

// TestZeroCostTreatmentDegeneracy: a free full-universe treatment makes the
// whole problem free — the DP must find cost 0, not loop.
func TestZeroCostTreatmentDegeneracy(t *testing.T) {
	p := &Problem{
		K:       3,
		Weights: []uint64{4, 5, 6},
		Actions: []Action{
			{Set: Universe(3), Cost: 0, Treatment: true},
			{Set: SetOf(0), Cost: 9},
		},
	}
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != 0 {
		t.Fatalf("Cost = %d, want 0", sol.Cost)
	}
}

func TestSelfReferenceExclusion(t *testing.T) {
	// A test whose set contains all of U never splits and must be excluded:
	// with only that test and one treatment, the treatment must be chosen.
	p := &Problem{
		K:       2,
		Weights: []uint64{1, 2},
		Actions: []Action{
			{Name: "full-test", Set: SetOf(0, 1), Cost: 1},
			{Name: "t", Set: SetOf(0, 1), Cost: 10, Treatment: true},
		},
	}
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != 30 {
		t.Fatalf("Cost = %d, want 30 (treatment only)", sol.Cost)
	}
	if _, ch := Cell(p, sol.C, 0b11); ch != 1 {
		t.Fatalf("Choice = %d, want the treatment", ch)
	}
}

func TestSolveMatchesMemoAndExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		k := rng.Intn(3) + 2 // 2..4
		p := randomProblem(rng, k, rng.Intn(6)+2)
		sol, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		memo, err := SolveMemo(p)
		if err != nil {
			t.Fatal(err)
		}
		if memo != sol.Cost {
			t.Fatalf("trial %d: Solve=%d SolveMemo=%d", trial, sol.Cost, memo)
		}
		exh, err := SolveExhaustive(p)
		if err != nil {
			t.Fatal(err)
		}
		if exh != sol.Cost {
			t.Fatalf("trial %d: Solve=%d SolveExhaustive=%d", trial, sol.Cost, exh)
		}
	}
}

// TestMemoAndExhaustiveHonorCancellation: the Ctx variants must notice an
// already-cancelled context and return its error instead of sweeping.
func TestMemoAndExhaustiveHonorCancellation(t *testing.T) {
	p := randomProblem(rand.New(rand.NewSource(3)), 4, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SolveMemoCtx(ctx, p); err != context.Canceled {
		t.Fatalf("SolveMemoCtx on cancelled ctx: err = %v, want context.Canceled", err)
	}
	if _, err := SolveExhaustiveCtx(ctx, p); err != context.Canceled {
		t.Fatalf("SolveExhaustiveCtx on cancelled ctx: err = %v, want context.Canceled", err)
	}
}

func TestExhaustiveRejectsLargeK(t *testing.T) {
	p := randomProblem(rand.New(rand.NewSource(1)), 9, 3)
	if _, err := SolveExhaustive(p); err == nil {
		t.Fatal("exhaustive accepted K=9")
	}
}

// TestTreeCostMatchesDP: the independently evaluated cost of the extracted
// optimal tree must equal C(U) exactly.
func TestTreeCostMatchesDP(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 80; trial++ {
		k := rng.Intn(5) + 2 // 2..6
		p := randomProblem(rng, k, rng.Intn(8)+2)
		sol, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := sol.Tree(p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := TreeCost(p, tree)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got != sol.Cost {
			t.Fatalf("trial %d: TreeCost=%d, C(U)=%d", trial, got, sol.Cost)
		}
		if d := tree.Depth(); d < 1 || d > 2*k+2 {
			t.Fatalf("trial %d: implausible depth %d", trial, d)
		}
		if tree.CountNodes() < 1 {
			t.Fatal("empty tree")
		}
	}
}

func TestTreeCostRejectsBadTree(t *testing.T) {
	p := &Problem{
		K:       2,
		Weights: []uint64{1, 1},
		Actions: []Action{
			{Set: SetOf(0), Cost: 1, Treatment: true},
			{Set: SetOf(1), Cost: 1, Treatment: true},
		},
	}
	// Tree that treats only object 0.
	bad := &Node{Action: 0, Set: Universe(2)}
	if _, err := TreeCost(p, bad); err == nil {
		t.Fatal("TreeCost accepted a tree that strands object 1")
	}
}

func TestRenderShowsStructure(t *testing.T) {
	p := &Problem{
		K:       2,
		Weights: []uint64{1, 1},
		Actions: []Action{
			{Name: "probe", Set: SetOf(0), Cost: 1},
			{Name: "fix0", Set: SetOf(0), Cost: 2, Treatment: true},
			{Name: "fix1", Set: SetOf(1), Cost: 2, Treatment: true},
		},
	}
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := sol.Tree(p)
	if err != nil {
		t.Fatal(err)
	}
	out := tree.Render(p)
	for _, want := range []string{"treat", "==> treats"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestGreedyValidAndNeverBeatsOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	beats := 0
	for trial := 0; trial < 100; trial++ {
		k := rng.Intn(5) + 2
		p := randomProblem(rng, k, rng.Intn(8)+2)
		sol, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		g, err := GreedyCost(p)
		if err != nil {
			t.Fatalf("trial %d: greedy failed: %v", trial, err)
		}
		if g < sol.Cost {
			beats++
			t.Errorf("trial %d: greedy %d beat optimal %d", trial, g, sol.Cost)
		}
	}
	if beats > 0 {
		t.Fatalf("greedy beat the optimum %d times", beats)
	}
}

func TestGreedyOptimalOnEasyInstance(t *testing.T) {
	// One obviously dominant treatment: greedy must find the optimum.
	p := &Problem{
		K:       2,
		Weights: []uint64{1, 1},
		Actions: []Action{
			{Set: SetOf(0, 1), Cost: 1, Treatment: true},
			{Set: SetOf(0), Cost: 50, Treatment: true},
		},
	}
	sol, _ := Solve(p)
	g, err := GreedyCost(p)
	if err != nil {
		t.Fatal(err)
	}
	if g != sol.Cost {
		t.Fatalf("greedy %d != optimal %d", g, sol.Cost)
	}
}

func TestBinaryTestingRecoversIdentification(t *testing.T) {
	// 4 equally likely objects, two unit-cost bit tests, expensive singleton
	// treatments: optimum is test both bits then treat = (1+1+100) per object.
	tests := []Action{
		{Name: "bit0", Set: SetOf(0, 1), Cost: 1},
		{Name: "bit1", Set: SetOf(0, 2), Cost: 1},
	}
	p := BinaryTesting([]uint64{1, 1, 1, 1}, tests, 100)
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != 408 {
		t.Fatalf("Cost = %d, want 408", sol.Cost)
	}
	tree, err := sol.Tree(p)
	if err != nil {
		t.Fatal(err)
	}
	if p.Actions[tree.Action].Treatment || tree.Depth() != 3 {
		t.Fatalf("expected test-test-treat structure, depth %d", tree.Depth())
	}
}

// Property: scaling every weight by a constant scales C(U) by the same
// constant (cost is linear in the weight vector).
func TestPropertyWeightLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(seed int64, scale8 uint8) bool {
		scale := uint64(scale8%7) + 1
		p := randomProblem(rand.New(rand.NewSource(seed)), 3, 5)
		sol1, err := Solve(p)
		if err != nil {
			return false
		}
		q := p.Clone()
		for j := range q.Weights {
			q.Weights[j] *= scale
		}
		sol2, err := Solve(q)
		if err != nil {
			return false
		}
		return sol2.Cost == sol1.Cost*scale
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: adding an action never increases the optimal cost.
func TestPropertyActionMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func(seed int64, setBits uint8, cost8 uint8, treat bool) bool {
		p := randomProblem(rand.New(rand.NewSource(seed)), 4, 4)
		sol1, err := Solve(p)
		if err != nil {
			return false
		}
		extra := Action{
			Set:       Set(setBits)&Universe(4) | 1,
			Cost:      uint64(cost8%50) + 1,
			Treatment: treat,
		}
		q := p.Clone()
		q.Actions = append(q.Actions, extra)
		sol2, err := Solve(q)
		if err != nil {
			return false
		}
		return sol2.Cost <= sol1.Cost
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: any valid procedure tree costs at least C(U) — here the greedy
// tree serves as the arbitrary valid tree.
func TestPropertyDPIsLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := func(seed int64) bool {
		p := randomProblem(rand.New(rand.NewSource(seed)), 4, 6)
		sol, err := Solve(p)
		if err != nil {
			return false
		}
		g, err := GreedyCost(p)
		if err != nil {
			return false
		}
		return g >= sol.Cost
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSaturatingArithmetic(t *testing.T) {
	if SatAdd(Inf, 1) != Inf || SatAdd(1, Inf) != Inf {
		t.Error("SatAdd does not absorb Inf")
	}
	if SatAdd(^uint64(0)-1, 5) != Inf {
		t.Error("SatAdd overflow not saturated")
	}
	if SatMul(Inf, 2) != Inf || SatMul(0, Inf) != 0 {
		t.Error("SatMul Inf handling wrong")
	}
	if SatMul(1<<33, 1<<33) != Inf {
		t.Error("SatMul overflow not saturated")
	}
	if SatMul(3, 4) != 12 || SatAdd(3, 4) != 7 {
		t.Error("plain arithmetic broken")
	}
}

// TestSatMulSaturatesExactly pins satMul (and the hoisted-bound satMulLim
// the sweeps use) to the 128-bit product clamped at Inf, across zero, one,
// Inf, and the overflow boundary.
func TestSatMulSaturatesExactly(t *testing.T) {
	vals := []uint64{0, 1, 2, 3, 7, 1 << 18, 1<<32 - 1, 1 << 32, 1<<32 + 1, Inf / 3, Inf/2 - 1, Inf / 2, Inf/2 + 1, Inf - 1, Inf}
	for _, a := range vals {
		for _, b := range vals {
			want := Inf
			if hi, lo := bits.Mul64(a, b); hi == 0 {
				want = lo
			}
			if got := satMul(a, b); got != want {
				t.Errorf("satMul(%d, %d) = %d, want %d", a, b, got, want)
			}
			if got := satMulLim(a, b, mulLimit(b)); got != want {
				t.Errorf("satMulLim(%d, %d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestOpsCounting(t *testing.T) {
	p := randomProblem(rand.New(rand.NewSource(3)), 4, 5)
	sol, _ := Solve(p)
	// (2^k - 1) subsets × (N evaluations + 1 final min).
	want := int64((1<<4 - 1) * (len(p.Actions) + 1))
	if sol.Ops != want {
		t.Fatalf("Ops = %d, want %d", sol.Ops, want)
	}
}

func BenchmarkSolveK12(b *testing.B) {
	p := randomProblem(rand.New(rand.NewSource(1)), 12, 24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveK16(b *testing.B) {
	p := randomProblem(rand.New(rand.NewSource(2)), 16, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGreedy(b *testing.B) {
	p := randomProblem(rand.New(rand.NewSource(3)), 16, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GreedyCost(p); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTreeCostCtxCancelled: pricing honors its context — an already-ended
// context fails at entry, and a long walk is interrupted at a poll stride.
func TestTreeCostCtxCancelled(t *testing.T) {
	p := &Problem{
		K:       1,
		Weights: []uint64{1},
		Actions: []Action{
			{Set: SetOf(), Cost: 1}, // test matching nothing: walk goes Neg
			{Set: SetOf(0), Cost: 1, Treatment: true},
		},
	}
	// A handcrafted chain longer than one poll stride: TreeCost's walk
	// follows Neg links without shrinking the set (such a tree is invalid —
	// certify would reject it — but pricing must stay interruptible even on
	// adversarial shapes, which is exactly when it matters).
	leaf := &Node{Action: 1, Set: SetOf(0)}
	root := leaf
	for i := 0; i < 5000; i++ {
		root = &Node{Action: 0, Set: SetOf(0), Neg: root}
	}
	if _, err := TreeCost(p, root); err != nil {
		t.Fatalf("uncancelled pricing failed: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := TreeCostCtx(ctx, p, root); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled pricing returned %v, want context.Canceled", err)
	}
}
