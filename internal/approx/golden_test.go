package approx

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/heuristics.golden from the current solvers")

// heuristicsDomains are cmd/ttgen's seven domains with ttgen's default
// parameters (seed 1, boards of 4, 6 tests and 4 treatments, treatment
// cost 60), as internal/serve's golden uses them.
var heuristicsDomains = []struct {
	name string
	gen  func(k int) *core.Problem
}{
	{"medical", func(k int) *core.Problem { return workload.MedicalDiagnosis(1, k) }},
	{"fault", func(k int) *core.Problem { return workload.FaultLocation(1, k, 4) }},
	{"biology", func(k int) *core.Problem { return workload.SystematicBiology(1, k) }},
	{"laboratory", func(k int) *core.Problem { return workload.LaboratoryAnalysis(1, k) }},
	{"logistics", func(k int) *core.Problem { return workload.Logistics(1, k, 4) }},
	{"binary", func(k int) *core.Problem { return workload.BinaryTestingUniform(k, 60) }},
	{"random", func(k int) *core.Problem { return workload.Random(1, k, 6, 4) }},
}

// zeroMassProblem has two weightless objects that every greedy rule reaches
// as a set of their own. There no action makes progress, so the ratio and
// gain greedies fall back to the first treatment that intersects the set:
// treat-1 at {1,2}, then treat-12 at {2}.
func zeroMassProblem() *core.Problem {
	return &core.Problem{
		K:       4,
		Weights: []uint64{4, 0, 0, 6},
		Actions: []core.Action{
			{Name: "split-12", Set: core.SetOf(1, 2), Cost: 1},
			{Name: "split-03", Set: core.SetOf(0, 1), Cost: 2},
			{Name: "treat-03", Set: core.SetOf(0, 3), Cost: 1, Treatment: true},
			{Name: "treat-1", Set: core.SetOf(1), Cost: 3, Treatment: true},
			{Name: "treat-12", Set: core.SetOf(1, 2), Cost: 5, Treatment: true},
			{Name: "treat-2", Set: core.SetOf(2), Cost: 1, Treatment: true},
		},
	}
}

// TestHeuristicsGolden pins every heuristic's answer on ttgen's seven
// domains at k = 3..10, on solve-cold's oversized approx shape at k = 16, 20
// and 24, and on zeroMassProblem: core.GreedyTree's and depth-2
// core.LookaheadTree's trees, and Solve's full result under the default
// options, greedy only, and a 1.2 target gap. A change to how the
// heuristics read p(S) or the treatment floor must leave this file
// unchanged; rerun with -update only when an answer is meant to change.
func TestHeuristicsGolden(t *testing.T) {
	type instance struct {
		name string
		p    *core.Problem
	}
	var insts []instance
	for _, d := range heuristicsDomains {
		for k := 3; k <= 10; k++ {
			insts = append(insts, instance{fmt.Sprintf("%s k=%d", d.name, k), d.gen(k)})
		}
	}
	for _, k := range []int{16, 20, 24} {
		insts = append(insts, instance{fmt.Sprintf("oversized k=%d", k), workload.Oversized(int64(k), k)})
	}
	insts = append(insts, instance{"zero-mass k=4", zeroMassProblem()})

	var got bytes.Buffer
	for _, in := range insts {
		fmt.Fprintf(&got, "== %s\n", in.name)
		sexpr := func(tree *core.Node, err error) string {
			if err != nil {
				return "error: " + err.Error()
			}
			return tree.SExpr(in.p)
		}
		fmt.Fprintf(&got, "greedy %s\n", sexpr(core.GreedyTree(in.p)))
		fmt.Fprintf(&got, "lookahead2 %s\n", sexpr(core.LookaheadTree(in.p, 2)))
		for _, o := range []struct {
			name string
			opts Options
		}{
			{"default", Options{}},
			{"greedy-only", Options{NodeBudget: -1}},
			{"target-1.2", Options{TargetMilli: 1200}},
		} {
			res, err := Solve(context.Background(), in.p, o.opts)
			if err != nil {
				fmt.Fprintf(&got, "solve %s error: %v\n", o.name, err)
				continue
			}
			fmt.Fprintf(&got, "solve %s cost=%d lb=%d gap=%d exact=%t adequate=%t policy=%s nodes=%d %s\n",
				o.name, res.Cost, res.LowerBound, res.GapMilli, res.Exact, res.Adequate,
				res.Policy, res.Nodes, res.Tree.SExpr(in.p))
		}
	}

	path := filepath.Join("testdata", "heuristics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < min(len(gl), len(wl)); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("output differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output differs from %s in length: %d lines, want %d", path, len(gl), len(wl))
	}
}
