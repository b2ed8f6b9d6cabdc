package repro_test

// End-to-end integration: generate a domain instance, round-trip it through
// the JSON wire format, solve it with every engine (sequential DP, parallel
// on three engines, instruction-level BVM), extract the optimal procedure
// from the PARALLEL machine's output alone, evaluate it independently, and
// Monte-Carlo-validate the expected cost — the full life of an instance
// through the repository.

import (
	"bytes"
	"context"
	"math"
	"testing"

	"repro/internal/bvmtt"
	"repro/internal/core"
	"repro/internal/instio"
	"repro/internal/parttsolve"
	"repro/internal/simulate"
	"repro/internal/workload"
)

func TestEndToEndPipeline(t *testing.T) {
	cases := map[string]*core.Problem{
		"medical":   workload.MedicalDiagnosis(5, 4),
		"fault":     workload.FaultLocation(6, 4, 2),
		"logistics": workload.Logistics(7, 4, 2),
	}
	for name, generated := range cases {
		t.Run(name, func(t *testing.T) {
			// Wire-format round trip.
			var buf bytes.Buffer
			if err := instio.Write(&buf, generated, "integration"); err != nil {
				t.Fatal(err)
			}
			p, err := instio.Read(&buf)
			if err != nil {
				t.Fatal(err)
			}

			// Every engine agrees.
			seq, err := core.Solve(p)
			if err != nil {
				t.Fatal(err)
			}
			for _, kind := range []parttsolve.EngineKind{
				parttsolve.Lockstep, parttsolve.Goroutine, parttsolve.CCC,
			} {
				par, err := parttsolve.Solve(p, kind)
				if err != nil {
					t.Fatalf("%v: %v", kind, err)
				}
				if par.Cost != seq.Cost {
					t.Fatalf("%v: %d != %d", kind, par.Cost, seq.Cost)
				}
			}
			bv, err := bvmtt.Solve(p, 0)
			if err != nil {
				t.Fatal(err)
			}
			if bv.Cost != seq.Cost {
				t.Fatalf("bvm: %d != %d", bv.Cost, seq.Cost)
			}

			// Tree from the parallel machine's own output.
			par, err := parttsolve.Solve(p, parttsolve.Lockstep)
			if err != nil {
				t.Fatal(err)
			}
			tree, err := core.TreeFromCosts(p, par.C)
			if err != nil {
				t.Fatal(err)
			}
			if tc, err := core.TreeCost(p, tree); err != nil || tc != seq.Cost {
				t.Fatalf("machine-built tree: cost %d err %v, want %d", tc, err, seq.Cost)
			}

			// Operational validation: Monte-Carlo within 5 standard errors.
			est, err := simulate.EstimateCost(p, tree, 7, 30000)
			if err != nil {
				t.Fatal(err)
			}
			if diff := math.Abs(est.Mean - float64(seq.Cost)); diff > 5*est.StdErr+1e-9 {
				t.Fatalf("MC %.1f ± %.1f vs analytic %d", est.Mean, est.StdErr, seq.Cost)
			}

			// Bounded-lookahead and greedy bracket the optimum from above.
			for _, d := range []int{0, 2} {
				la, err := core.LookaheadCost(p, d)
				if err != nil {
					t.Fatal(err)
				}
				if la < seq.Cost {
					t.Fatalf("lookahead depth %d beat the optimum", d)
				}
			}
		})
	}
}

// TestSoakAllEngines runs a broader randomized cross-engine sweep; skipped
// in -short mode.
func TestSoakAllEngines(t *testing.T) {
	if testing.Short() {
		t.Skip("soak in -short mode")
	}
	for seed := int64(0); seed < 15; seed++ {
		p := workload.Random(seed, int(3+seed%3), 3, 2)
		seq, err := core.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		memo, err := core.SolveMemo(p)
		if err != nil || memo != seq.Cost {
			t.Fatalf("seed %d: memo %d err %v", seed, memo, err)
		}
		hostPar, err := core.SolveParallelPooledCtx(context.Background(), p, 0, nil, nil, nil)
		if err != nil || hostPar.Cost != seq.Cost {
			t.Fatalf("seed %d: host-parallel %d err %v", seed, hostPar.Cost, err)
		}
		par, err := parttsolve.Solve(p, parttsolve.Lockstep)
		if err != nil || par.Cost != seq.Cost {
			t.Fatalf("seed %d: parallel %d err %v", seed, par.Cost, err)
		}
		bv, err := bvmtt.Solve(p, 0)
		if err != nil || bv.Cost != seq.Cost {
			t.Fatalf("seed %d: bvm %d err %v", seed, bv.Cost, err)
		}
	}
}
