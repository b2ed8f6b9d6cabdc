package certify

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
)

// randomProblem builds a random, usually adequate instance (same construction
// as the core tests: a catch-all treatment guarantees adequacy).
func randomProblem(rng *rand.Rand, k, nActions int) *core.Problem {
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
	p.Actions = append(p.Actions, core.Action{Name: "catch-all", Set: core.Universe(k), Cost: 500, Treatment: true})
	return p
}

func solveTree(t *testing.T, p *core.Problem) (*core.Solution, *core.Node) {
	t.Helper()
	sol, err := core.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Adequate() {
		t.Fatal("expected adequate instance")
	}
	root, err := sol.Tree(p)
	if err != nil {
		t.Fatal(err)
	}
	return sol, root
}

func TestParseMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Mode
		ok   bool
	}{
		{"off", ModeOff, true},
		{"fast", ModeFast, true},
		{"", ModeFast, true},
		{"audit", ModeAudit, true},
		{"paranoid", ModeOff, false},
	} {
		got, err := ParseMode(tc.in)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Errorf("ParseMode(%q) = %v, %v", tc.in, got, err)
		}
		if tc.ok && tc.in != "" && got.String() != tc.in {
			t.Errorf("Mode(%q).String() = %q", tc.in, got.String())
		}
	}
}

// TestHonestAnswersCertify: every check passes on genuine solver output, over
// many random instances — certification must never reject a correct answer.
func TestHonestAnswersCertify(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 60; trial++ {
		k := 2 + rng.Intn(5)
		p := randomProblem(rng, k, 1+rng.Intn(6))
		sol, root := solveTree(t, p)
		if r := Tree(p, root, sol.Cost); !r.OK() {
			t.Fatalf("trial %d: Tree rejected an honest answer: %v", trial, r.Violations)
		}
		if r := Table(p, sol.C); !r.OK() {
			t.Fatalf("trial %d: Table rejected an honest answer: %v", trial, r.Violations)
		}
		if r := Monotone(p, sol.C); !r.OK() {
			t.Fatalf("trial %d: Monotone rejected an honest answer: %v", trial, r.Violations)
		}
		if r := Cells(p, sol.C, choicesOf(p, sol.C), 64, int64(trial)); !r.OK() {
			t.Fatalf("trial %d: Cells rejected an honest answer: %v", trial, r.Violations)
		}
		for _, mode := range []Mode{ModeOff, ModeFast, ModeAudit} {
			if r := Check(p, sol.Cost, root, sol.C, choicesOf(p, sol.C), mode, int64(trial)); !r.OK() {
				t.Fatalf("trial %d: Check(%v) rejected an honest answer: %v", trial, mode, r.Violations)
			}
		}
	}
}

// TestInadequateCertifies: an inadequate instance (cost Inf, no tree) must
// certify cleanly from its table.
func TestInadequateCertifies(t *testing.T) {
	p := &core.Problem{
		K:       2,
		Weights: []uint64{1, 1},
		Actions: []core.Action{{Set: core.SetOf(0), Cost: 1, Treatment: true}},
	}
	sol, err := core.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Adequate() {
		t.Fatal("instance should be inadequate")
	}
	if r := Check(p, sol.Cost, nil, sol.C, choicesOf(p, sol.C), ModeAudit, 1); !r.OK() {
		t.Fatalf("inadequate answer rejected: %v", r.Violations)
	}
}

func TestTreeDetectsWrongReportedCost(t *testing.T) {
	p := randomProblem(rand.New(rand.NewSource(2)), 4, 5)
	sol, root := solveTree(t, p)
	r := Tree(p, root, sol.Cost+1)
	if r.OK() {
		t.Fatal("perturbed reported cost not detected")
	}
	if r.Violations[0].Kind != BadPrice {
		t.Fatalf("kind = %v, want %v", r.Violations[0].Kind, BadPrice)
	}
	var cerr *Error
	if err := r.Err(); !errors.As(err, &cerr) {
		t.Fatalf("Err() = %v, want *Error", err)
	}
}

func TestTableDetectsCorruptTopCell(t *testing.T) {
	p := randomProblem(rand.New(rand.NewSource(3)), 4, 5)
	sol, _ := solveTree(t, p)
	c := append([]uint64(nil), sol.C...)
	c[len(c)-1]++
	if r := Table(p, c); r.OK() {
		t.Fatal("corrupt top cell not detected")
	}
	c = append([]uint64(nil), sol.C...)
	c[0] = 7
	if r := Table(p, c); r.OK() {
		t.Fatal("nonzero C(∅) not detected")
	}
	if r := Table(p, c[:4]); r.OK() || r.Violations[0].Kind != BadShape {
		t.Fatal("wrong geometry not detected")
	}
}

// TestCellsDetectsCorruptSampledCell corrupts exactly the subset the seeded
// sampler draws first, so detection is deterministic.
func TestCellsDetectsCorruptSampledCell(t *testing.T) {
	p := randomProblem(rand.New(rand.NewSource(4)), 5, 6)
	sol, _ := solveTree(t, p)
	size := len(sol.C)
	const seed = 99
	first := 1 + rand.New(rand.NewSource(seed)).Intn(size-1)
	c := append([]uint64(nil), sol.C...)
	if c[first] == core.Inf {
		c[first] = 5
	} else {
		c[first]++
	}
	r := Cells(p, c, nil, 1, seed)
	if r.OK() {
		t.Fatalf("corrupt cell %v not detected", core.Set(first))
	}
	if r.Violations[0].Kind != BadCell {
		t.Fatalf("kind = %v, want %v", r.Violations[0].Kind, BadCell)
	}
	if r.Checked != len(p.Actions) {
		t.Fatalf("Checked = %d, want %d", r.Checked, len(p.Actions))
	}
}

func TestCellsDetectsWrongArgmin(t *testing.T) {
	p := randomProblem(rand.New(rand.NewSource(5)), 4, 5)
	sol, _ := solveTree(t, p)
	size := len(sol.C)
	const seed = 42
	first := 1 + rand.New(rand.NewSource(seed)).Intn(size-1)
	choice := append([]int32(nil), choicesOf(p, sol.C)...)
	choice[first] = (choice[first] + 1) % int32(len(p.Actions))
	// The perturbed index may happen to be an equal-cost minimizer only if it
	// prices identically; the lowest-index tie-break still makes it wrong
	// unless it *is* the recorded one — which the +1 rotation rules out.
	r := Cells(p, sol.C, choice, 1, seed)
	if r.OK() {
		t.Fatalf("wrong argmin at %v not detected", core.Set(first))
	}
	if r.Violations[0].Kind != BadChoice {
		t.Fatalf("kind = %v, want %v", r.Violations[0].Kind, BadChoice)
	}
}

func TestMonotoneDetectsInversion(t *testing.T) {
	p := randomProblem(rand.New(rand.NewSource(6)), 4, 5)
	sol, _ := solveTree(t, p)
	c := append([]uint64(nil), sol.C...)
	u := len(c) - 1
	c[u&^1] = c[u] + 100 // subset costs more than its superset: impossible
	r := Monotone(p, c)
	if r.OK() {
		t.Fatal("monotonicity inversion not detected")
	}
	if r.Violations[0].Kind != BadMonotone {
		t.Fatalf("kind = %v, want %v", r.Violations[0].Kind, BadMonotone)
	}
}

func TestCheckRefusesUnverifiableFiniteCost(t *testing.T) {
	p := randomProblem(rand.New(rand.NewSource(7)), 3, 4)
	if r := Check(p, 123, nil, nil, nil, ModeFast, 0); r.OK() {
		t.Fatal("finite cost with no evidence must not certify")
	}
	if r := Check(p, core.Inf, nil, nil, nil, ModeFast, 0); !r.OK() {
		t.Fatalf("Inf with no evidence should pass (nothing claimed): %v", r.Violations)
	}
	if r := Check(p, 123, nil, nil, nil, ModeOff, 0); !r.OK() {
		t.Fatal("ModeOff must not reject anything")
	}
}

// cloneTree deep-copies a procedure tree so mutations don't alias.
func cloneTree(n *core.Node) *core.Node {
	if n == nil {
		return nil
	}
	return &core.Node{Action: n.Action, Set: n.Set, Pos: cloneTree(n.Pos), Neg: cloneTree(n.Neg)}
}

// collect returns every node in the tree, root first.
func collect(n *core.Node) []*core.Node {
	if n == nil {
		return nil
	}
	out := []*core.Node{n}
	out = append(out, collect(n.Pos)...)
	return append(out, collect(n.Neg)...)
}

// choicesOf is the argmin plane of a finished cost plane — what the machine
// engines report alongside C — rebuilt with core.Cell.
func choicesOf(p *core.Problem, c []uint64) []int32 {
	choice := make([]int32, len(c))
	for s := range c {
		_, choice[s] = core.Cell(p, c, core.Set(s))
	}
	return choice
}
