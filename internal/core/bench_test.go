package core_test

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// BenchmarkSolveParallelK16 runs the block sweep on at least two ranges, so
// that it does not fall to the one-block sweep on a single-CPU host: the
// random K = 16 instance it has always timed, then one instance per serving
// domain at K = 15 on 2 ranges, the shape of perfbench's solve-wide.
func BenchmarkSolveParallelK16(b *testing.B) {
	for _, bc := range []struct {
		name   string
		p      *core.Problem
		ranges int
	}{
		{"Random-K16", core.RandomProblem(rand.New(rand.NewSource(62)), 16, 32), max(2, runtime.GOMAXPROCS(0))},
		{"K15-Random", workload.Random(1, 15, 15, 7), 2},
		{"K15-MedicalDiagnosis", workload.MedicalDiagnosis(1, 15), 2},
		{"K15-FaultLocation", workload.FaultLocation(1, 15, 4), 2},
		{"K15-SystematicBiology", workload.SystematicBiology(1, 15), 2},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sol, err := core.SolveParallelPooledCtx(context.Background(), bc.p, bc.ranges, nil, nil, nil)
				if err != nil {
					b.Fatal(err)
				}
				sol.Release()
			}
		})
	}
}
