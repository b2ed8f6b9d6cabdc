package repro_test

// One benchmark per experiment row of DESIGN.md's index: regenerating a
// figure or claim under the Go benchmark harness pins its cost and keeps the
// reproduction runnable as `go test -bench=.`.

import (
	"context"
	"fmt"
	"io"
	"testing"

	"repro/internal/approx"
	"repro/internal/bvm"
	"repro/internal/bvmalg"
	"repro/internal/bvmtt"
	"repro/internal/cccsim"
	"repro/internal/certify"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/hypercube"
	"repro/internal/parttsolve"
	"repro/internal/workload"
)

// BenchmarkE1TreeExtraction — Figure 1: solve and extract the optimal tree.
func BenchmarkE1TreeExtraction(b *testing.B) {
	p := experiments.Fig1Problem()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := core.Solve(p)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sol.Tree(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3CycleID — Figure 3: the 4Q-instruction cycle-ID on 2048 PEs.
func BenchmarkE3CycleID(b *testing.B) {
	m, err := bvm.New(3, bvm.DefaultRegisters)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bvmalg.CycleID(m, bvm.R(0))
	}
}

// BenchmarkE4ProcessorID — Figures 4-5: O(log^2 n) processor-ID on 2048 PEs.
func BenchmarkE4ProcessorID(b *testing.B) {
	m, err := bvm.New(3, bvm.DefaultRegisters)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bvmalg.ProcessorID(m, 10)
	}
}

// BenchmarkE5Broadcast — Figure 6: hypercube broadcast at 2^14 PEs.
func BenchmarkE5Broadcast(b *testing.B) {
	vals := make([]uint64, 1<<14)
	vals[0] = 42
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hypercube.Broadcast(14, vals, 0)
	}
}

// BenchmarkE6AscendMin — Figure 7: the ASCEND minimization at 2^14 lanes.
func BenchmarkE6AscendMin(b *testing.B) {
	m := hypercube.New[uint64](14)
	for i := range m.State() {
		m.State()[i] = uint64(i * 2654435761)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Ascend(func(_, _ int, s, p uint64) uint64 {
			if p < s {
				return p
			}
			return s
		})
	}
}

// BenchmarkE8ParallelTT — the O(k(k+log N)) parallel algorithm, k=8.
func BenchmarkE8ParallelTT(b *testing.B) {
	p := workload.Random(1, 8, 8, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := parttsolve.Solve(p, parttsolve.Lockstep); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9SequentialDP — the T1 baseline at k=16.
func BenchmarkE9SequentialDP(b *testing.B) {
	p := workload.Random(2, 16, 16, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Solve(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveDP — the exact sweep every engine shares: one cost plane,
// levels in Gosper order, each cell one compiled-kernel Cell call. Random
// runs at the k=16 serving sweet spot and the k=20 cache-pressure regime
// (8 MiB plane, past L2); the three domain generators run at k=16, so the
// four k=16 rows are the instance mix the serving benchmark's cold path
// solves. ns/cell is the time per (subset, action) evaluation of M[S,i].
func BenchmarkSolveDP(b *testing.B) {
	cases := []struct {
		name string
		p    *core.Problem
	}{
		{"k16", workload.Random(2, 16, 16, 16)},
		{"k20", workload.Random(2, 20, 16, 16)},
		{"medical/k16", workload.MedicalDiagnosis(2, 16)},
		{"faultloc/k16", workload.FaultLocation(2, 16, 4)},
		{"sysbio/k16", workload.SystematicBiology(2, 16)},
	}
	for _, tc := range cases {
		p := tc.p
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sol, err := core.Solve(p)
				if err != nil {
					b.Fatal(err)
				}
				sol.Release()
			}
			cells := float64(b.N) * float64(int64(1)<<uint(p.K)-1) * float64(len(p.Actions))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/cells, "ns/cell")
		})
	}
}

// BenchmarkSolveReuse pins the pooled no-alloc steady state: after warmup,
// a solve-release cycle must not allocate fresh 2^k tables. The allocs/op
// figure is the regression gate (see TestSolveSteadyStateAllocs for the
// hard assertion).
func BenchmarkSolveReuse(b *testing.B) {
	p := workload.Random(2, 14, 16, 16)
	// Warm the pools so the measurement starts in steady state.
	for i := 0; i < 3; i++ {
		sol, err := core.Solve(p)
		if err != nil {
			b.Fatal(err)
		}
		sol.Release()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := core.Solve(p)
		if err != nil {
			b.Fatal(err)
		}
		sol.Release()
	}
}

// BenchmarkSolveBatch — shared-lattice amortization (ISSUE 7): G instances
// differing only in costs and weights, solved one-by-one versus in a single
// enumerate-once re-price-per-instance sweep. The batched row's advantage is
// the enumeration work (Gosper, S∩T_i/S−T_i, guards) paid once per group.
func BenchmarkSolveBatch(b *testing.B) {
	const k, G = 14, 8
	base := workload.Random(2, k, 16, 16)
	group := make([]*core.Problem, G)
	group[0] = base
	for g := 1; g < G; g++ {
		q := base.Clone()
		for j := range q.Weights {
			q.Weights[j] = uint64(g*131+j*17)%20 + 1
		}
		for i := range q.Actions {
			q.Actions[i].Cost = uint64(g*37+i*11)%30 + 1
		}
		group[g] = q
	}
	b.Run(fmt.Sprintf("solo/G%d", G), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range group {
				sol, err := core.Solve(p)
				if err != nil {
					b.Fatal(err)
				}
				sol.Release()
			}
		}
	})
	b.Run(fmt.Sprintf("batched/G%d", G), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sols, err := core.SolveBatch(group, 1)
			if err != nil {
				b.Fatal(err)
			}
			for _, s := range sols {
				s.Release()
			}
		}
	})
}

// BenchmarkE10CCCAscend / BenchmarkE10HypercubeAscend — the slowdown pair on
// equal 2048-PE machines.
func BenchmarkE10CCCAscend(b *testing.B) {
	s, err := cccsim.New[uint64](3)
	if err != nil {
		b.Fatal(err)
	}
	for i := range s.State() {
		s.State()[i] = uint64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Ascend(func(_, _ int, x, y uint64) uint64 { return min(x, y) })
	}
}

func BenchmarkE10HypercubeAscend(b *testing.B) {
	m := hypercube.New[uint64](11)
	for i := range m.State() {
		m.State()[i] = uint64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Ascend(func(_, _ int, x, y uint64) uint64 { return min(x, y) })
	}
}

// BenchmarkE13BVMTT — the instruction-level BVM TT program on 64 PEs.
func BenchmarkE13BVMTT(b *testing.B) {
	p := workload.SystematicBiology(3, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bvmtt.Solve(p, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE14GreedyVsOptimal — the heuristic baseline at k=16.
func BenchmarkE14GreedyVsOptimal(b *testing.B) {
	p := workload.BinaryTestingUniform(16, 60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.GreedyCost(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkA2NaiveCCCAscend — ablation: the unpipelined schedule.
func BenchmarkA2NaiveCCCAscend(b *testing.B) {
	s, err := cccsim.New[uint64](3)
	if err != nil {
		b.Fatal(err)
	}
	for i := range s.State() {
		s.State()[i] = uint64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.NaiveAscend(func(_, _ int, x, y uint64) uint64 { return min(x, y) })
	}
}

// BenchmarkA4GoroutineEngine — ablation: goroutine-per-PE at k=6.
func BenchmarkA4GoroutineEngine(b *testing.B) {
	p := workload.Random(3, 6, 6, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := parttsolve.Solve(p, parttsolve.Goroutine); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullReport regenerates every experiment section end to end.
func BenchmarkFullReport(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.RunAll(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE15Virtualization — folding accounting over the full sweep.
func BenchmarkE15Virtualization(b *testing.B) {
	p := workload.Random(99, 10, 16, 15)
	res, err := parttsolve.Solve(p, parttsolve.Lockstep)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for phys := 2; phys <= res.DimBits; phys++ {
			if _, err := res.VirtualizedSteps(phys); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkE16StaleTreeEvaluation — re-pricing a tree under shifted priors.
func BenchmarkE16StaleTreeEvaluation(b *testing.B) {
	p := workload.MedicalDiagnosis(21, 10)
	sol, err := core.Solve(p)
	if err != nil {
		b.Fatal(err)
	}
	tree, err := sol.Tree(p)
	if err != nil {
		b.Fatal(err)
	}
	w2 := make([]uint64, p.K)
	for j := range w2 {
		w2[j] = uint64(j + 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.TreeCostWithWeights(p, tree, w2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE17Lookahead — the depth-2 anytime policy at k=12.
func BenchmarkE17Lookahead(b *testing.B) {
	p := workload.FaultLocation(32, 12, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.LookaheadCost(p, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE18FullBVMProgram — the instruction-budget subject end to end.
func BenchmarkE18FullBVMProgram(b *testing.B) {
	p := workload.SystematicBiology(3, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bvmtt.Solve(p, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCertifyOverhead — the silent-corruption defense end to end: the
// same solve-plus-tree pipeline the server runs per answer, uncertified and
// under each certification mode. The committed BENCH_bvm.json records the
// three, pinning the claim that fast-mode certification costs at most a few
// percent of the answer it protects (audit is the deliberately expensive
// deep check).
func BenchmarkCertifyOverhead(b *testing.B) {
	p := workload.MedicalDiagnosis(14, 12)
	for _, mode := range []certify.Mode{certify.ModeOff, certify.ModeFast, certify.ModeAudit} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sol, err := core.Solve(p)
				if err != nil {
					b.Fatal(err)
				}
				tree, err := sol.Tree(p)
				if err != nil {
					b.Fatal(err)
				}
				if mode == certify.ModeOff {
					continue
				}
				if rep := certify.Check(p, sol.Cost, tree, sol.C, nil, mode, 7); !rep.OK() {
					b.Fatalf("certification failed: %v", rep.Err())
				}
			}
		})
	}
}

// BenchmarkA2WavefrontBVM — the pipelined machine-level reduction at 2048 PEs.
func BenchmarkA2WavefrontBVM(b *testing.B) {
	m, err := bvm.New(3, bvm.DefaultRegisters)
	if err != nil {
		b.Fatal(err)
	}
	val := bvmalg.Word{Base: 0, Width: 10}
	shadow := bvmalg.Word{Base: 10, Width: 10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bvmalg.MinReduceAllWavefront(m, val, shadow, 40)
	}
}

// BenchmarkGreedySolve — the bounded-suboptimality plane's anytime floor: the
// greedy portfolio plus gap certification on a K=22 instance, far past any
// exact 2^K budget. This is the cost of "never 422 an oversized instance".
func BenchmarkGreedySolve(b *testing.B) {
	p := workload.Oversized(9, 22)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := approx.Solve(context.Background(), p, approx.Options{NodeBudget: -1})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := certify.CertifyGap(p, res.Tree, res.Cost, res.GapMilli); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBranchAndBound — the anytime improvement phase run to a proof:
// branch-and-bound from the greedy incumbent down to certified optimality on
// a K=12 instance (the same family BenchmarkCertifyOverhead prices exactly).
func BenchmarkBranchAndBound(b *testing.B) {
	p := workload.MedicalDiagnosis(14, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := approx.Solve(context.Background(), p, approx.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Exact {
			b.Fatalf("branch-and-bound did not complete (nodes=%d)", res.Nodes)
		}
	}
}
