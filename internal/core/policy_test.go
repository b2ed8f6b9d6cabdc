package core

import (
	"encoding/json"
	"math/rand"
	"testing"
)

func TestPolicyReachablePruning(t *testing.T) {
	p := fig1like()
	sol, _ := Solve(p)
	pol, err := NewPolicy(p, sol)
	if err != nil {
		t.Fatal(err)
	}
	// Reachable states are a subset of all non-empty sets, and must include
	// the universe.
	if pol.States() < 1 || pol.States() >= 1<<p.K {
		t.Fatalf("States = %d", pol.States())
	}
	if _, ok := pol.ActionAt(Universe(p.K)); !ok {
		t.Fatal("no action at the universe")
	}
	// The stored choice matches the solution.
	idx, _ := pol.ActionAt(Universe(p.K))
	if _, want := cellOf(p, sol.C, Universe(p.K)); int32(idx) != want {
		t.Fatal("root choice mismatch")
	}
	if _, ok := pol.ActionAt(0); ok {
		t.Fatal("empty set has an action")
	}
}

func TestPolicyTreeMatchesSolutionTree(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 30; trial++ {
		p := randomProblem(rng, rng.Intn(4)+2, rng.Intn(8)+2)
		sol, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		pol, err := NewPolicy(p, sol)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := pol.Tree()
		if err != nil {
			t.Fatal(err)
		}
		cost, err := TreeCost(p, tree)
		if err != nil {
			t.Fatal(err)
		}
		if cost != sol.Cost {
			t.Fatalf("trial %d: policy tree costs %d, want %d", trial, cost, sol.Cost)
		}
	}
}

func TestPolicyJSONRoundTrip(t *testing.T) {
	p := fig1like()
	sol, _ := Solve(p)
	pol, err := NewPolicy(p, sol)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(pol)
	if err != nil {
		t.Fatal(err)
	}
	var back Policy
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.K != pol.K || back.States() != pol.States() {
		t.Fatalf("round trip changed shape: %d/%d vs %d/%d",
			back.K, back.States(), pol.K, pol.States())
	}
	tree, err := back.Tree()
	if err != nil {
		t.Fatal(err)
	}
	cost, err := TreeCost(p, tree)
	if err != nil {
		t.Fatal(err)
	}
	if cost != sol.Cost {
		t.Fatalf("deserialized policy tree costs %d, want %d", cost, sol.Cost)
	}
}

func TestPolicyUnmarshalValidates(t *testing.T) {
	cases := map[string]string{
		"bad k":        `{"k": 0, "actions": [], "choices": {}}`,
		"bad object":   `{"k": 2, "actions": [{"objects": [5], "cost": 1}], "choices": {}}`,
		"bad state":    `{"k": 2, "actions": [{"objects": [0], "cost": 1}], "choices": {"ff": 0}}`,
		"bad index":    `{"k": 2, "actions": [{"objects": [0], "cost": 1}], "choices": {"3": 9}}`,
		"bad statekey": `{"k": 2, "actions": [{"objects": [0], "cost": 1}], "choices": {"zz": 0}}`,
		"not json":     `[]`,
	}
	for name, in := range cases {
		var pol Policy
		if err := json.Unmarshal([]byte(in), &pol); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestPolicyInadequateRejected(t *testing.T) {
	p := &Problem{
		K:       2,
		Weights: []uint64{1, 1},
		Actions: []Action{{Set: SetOf(0), Cost: 1, Treatment: true}},
	}
	sol, _ := Solve(p)
	if _, err := NewPolicy(p, sol); err == nil {
		t.Fatal("policy built for inadequate instance")
	}
}

// TestPolicyTreeRejectsNonShrinkingChoices pins the fix for a crash: a
// caller-supplied policy whose choice does not strictly shrink the candidate
// set (a test with S∩T ∈ {∅, S}, or a treatment touching nothing in S) used
// to recurse forever in Tree() — a stack overflow any /v1/eval client could
// trigger with a few lines of JSON. Such choices must be rejected as
// malformed, not followed.
func TestPolicyTreeRejectsNonShrinkingChoices(t *testing.T) {
	cases := map[string]string{
		// Test covering the whole universe: positive branch recurses on S.
		"test covers S": `{"k": 2, "actions": [
			{"objects": [0, 1], "cost": 1},
			{"objects": [0, 1], "cost": 5, "treatment": true}],
			"choices": {"3": 0}}`,
		// Test disjoint from the state: negative branch recurses on S.
		"test misses S": `{"k": 2, "actions": [
			{"objects": [], "cost": 1},
			{"objects": [0, 1], "cost": 5, "treatment": true}],
			"choices": {"3": 0}}`,
		// Treatment treating nothing in the state: failure branch is S again.
		"treat misses S": `{"k": 2, "actions": [
			{"objects": [], "cost": 1, "treatment": true},
			{"objects": [0, 1], "cost": 5, "treatment": true}],
			"choices": {"3": 0}}`,
	}
	for name, in := range cases {
		var pol Policy
		if err := json.Unmarshal([]byte(in), &pol); err != nil {
			t.Fatalf("%s: unmarshal: %v", name, err)
		}
		// Must return an error promptly — before the fix this was an
		// unbounded recursion.
		if _, err := pol.Tree(); err == nil {
			t.Errorf("%s: non-shrinking policy accepted", name)
		}
	}
}
