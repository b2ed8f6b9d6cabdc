package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// TestExtractionOnEveryEntryPoint runs Solution.Tree, NewPolicy and Explain
// on the output of every exact entry point — each returns a cost-only
// Solution — and requires the C plane to equal the classic sweep's and the
// tree, policy and pricing rows to equal the sequential solve's.
func TestExtractionOnEveryEntryPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ctx := context.Background()
	for trial := 0; trial < 8; trial++ {
		k := rng.Intn(5) + 4 // 4..8
		p := randomProblem(rng, k, rng.Intn(8)+2)
		wantC, wantChoice := classicSolve(p)
		seq, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		wantTree, err := seq.Tree(p)
		if err != nil {
			t.Fatal(err)
		}
		if classic := classicTree(p, wantChoice, Universe(k)); !reflect.DeepEqual(wantTree, classic) {
			t.Fatalf("trial %d: seq tree differs from the classic choice-table tree", trial)
		}
		wantPol, err := NewPolicy(p, seq)
		if err != nil {
			t.Fatal(err)
		}
		wantRows := Explain(p, seq, Universe(k))

		batch := func(g int) func() (*Solution, error) {
			return func() (*Solution, error) {
				group := []*Problem{p}
				for len(group) < g {
					group = append(group, repriced(rng, p))
				}
				sols, err := SolveBatchCtx(ctx, group, 2, nil)
				if err != nil {
					return nil, err
				}
				return sols[0], nil
			}
		}
		type entry struct {
			name string
			run  func() (*Solution, error)
		}
		cases := []entry{
			{"seq", func() (*Solution, error) { return SolveCtx(ctx, p) }},
			{"batch G=1", batch(1)},
			{"batch G=2", batch(2)},
			{"batch G=5", batch(5)},
		}
		for _, w := range []int{1, 2, 4} {
			cases = append(cases, entry{fmt.Sprintf("parallel/%d", w), func() (*Solution, error) {
				return SolveParallelPooledCtx(ctx, p, w, nil, nil, nil)
			}})
		}
		for _, c := range cases {
			label := fmt.Sprintf("trial %d %s", trial, c.name)
			sol, err := c.run()
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if sol.Cost != wantC[len(wantC)-1] || !reflect.DeepEqual(sol.C, wantC) {
				t.Fatalf("%s: C plane differs from the classic sweep", label)
			}
			tree, err := sol.Tree(p)
			if err != nil {
				t.Fatalf("%s: Tree: %v", label, err)
			}
			if !reflect.DeepEqual(tree, wantTree) {
				t.Fatalf("%s: tree differs from the seq tree", label)
			}
			pol, err := NewPolicy(p, sol)
			if err != nil {
				t.Fatalf("%s: NewPolicy: %v", label, err)
			}
			if !reflect.DeepEqual(pol, wantPol) {
				t.Fatalf("%s: policy differs from the seq policy", label)
			}
			if rows := Explain(p, sol, Universe(k)); !reflect.DeepEqual(rows, wantRows) {
				t.Fatalf("%s: Explain rows differ from the seq rows", label)
			}
			sol.Release()
		}
	}
}
