package core

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
)

// TestSolveSteadyStateAllocs pins the pooled steady state: once the per-size
// pools are warm, a solve-release cycle performs only constant bookkeeping
// allocations (the Solution struct, the sweep's closures, the pool's pointer
// boxes), never a fresh 2^k table. The object bound of 8 is deliberately
// loose against Go runtime jitter while still catching a reintroduced table
// allocation; the byte bound — less than one 2^k uint64 plane per cycle —
// covers the two entry points ttserve calls, seq and parallel.
func TestSolveSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	p := randomProblem(rng, 12, 8)
	cycle := func(run func() (*Solution, error)) func() {
		return func() {
			sol, err := run()
			if err != nil {
				t.Fatal(err)
			}
			sol.Release()
		}
	}
	warm := cycle(func() (*Solution, error) { return Solve(p) })
	warm()
	warm()
	if avg := testing.AllocsPerRun(20, warm); avg > 8 {
		t.Fatalf("steady-state solve-release cycle allocates %.1f objects/op, want <= 8 (table pooling broken?)", avg)
	}

	plane := uint64(8) << uint(p.K)
	for name, run := range map[string]func() (*Solution, error){
		"seq": func() (*Solution, error) { return SolveCheckpointedCtx(context.Background(), p, nil, nil) },
		"parallel": func() (*Solution, error) {
			return SolveParallelPooledCtx(context.Background(), p, 2, nil, nil, nil)
		},
	} {
		warm := cycle(run)
		warm()
		warm()
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			warm()
		}
		runtime.ReadMemStats(&after)
		if perCycle := (after.TotalAlloc - before.TotalAlloc) / runs; perCycle >= plane {
			t.Errorf("%s: steady-state solve-release cycle allocates %d B, want < %d B (one 2^%d plane)",
				name, perCycle, plane, p.K)
		}
	}
}

// TestTableKBounds pins the pool-size guard: non-power-of-two and oversized
// tables are never pooled (Release just drops them).
func TestTableKBounds(t *testing.T) {
	cases := []struct {
		n    int
		want int
	}{
		{0, -1}, {1, 0}, {2, 1}, {3, -1}, {1024, 10}, {1 << MaxK, MaxK},
	}
	for _, c := range cases {
		if got := tableK(c.n); got != c.want {
			t.Fatalf("tableK(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	// Releasing odd-length tables must not panic or poison the pools.
	s := &Solution{C: make([]uint64, 3)}
	s.Release()
	var nilSol *Solution
	nilSol.Release() // nil-safe
}
