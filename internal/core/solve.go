package core

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"

	"repro/internal/stripe"
)

// Solution is the output of the exact DP solvers.
type Solution struct {
	// Cost is C(U), the minimum expected cost; Inf means the instance is
	// inadequate (no successful procedure exists).
	Cost uint64
	// C[s] is the minimum cost for candidate set s, for all 2^K subsets. It
	// is the only table the solvers keep: an argmin is one Kernel.Cell call
	// away (Tree, NewPolicy and Explain reconstruct the ones they visit).
	C []uint64
	// Choice is always nil. The solvers keep no argmin table; the field
	// remains only so that code compiled against the earlier three-table
	// Solution (the perfbench module passes it to certify.Check, which
	// treats nil as "no choices to audit") still builds.
	Choice []int32
	// Ops counts elementary operations (one per (S, action) evaluation plus
	// one per subset for the final minimum), the T_1 of the paper's speedup
	// S = T_1/T_p.
	Ops int64
}

// Solve runs the backward-induction dynamic program (the paper's sequential
// baseline, after Garey) level by level in popcount order: every C(S) at
// level j reads only strictly smaller sets, which earlier levels finished.
// Time O(N·2^K), space one 2^K cost plane.
func Solve(p *Problem) (*Solution, error) {
	return SolveCtx(context.Background(), p)
}

// SolveCtx is Solve with cancellation: the context is polled every ctxStride
// subsets and at every level barrier, so a deadline or client disconnect
// stops the O(N·2^K) sweep promptly. On cancellation the context's error is
// returned and the partial table is discarded.
func SolveCtx(ctx context.Context, p *Problem) (*Solution, error) {
	return solve(ctx, p, 1, nil, nil, nil)
}

// SolveCheckpointedCtx is SolveCtx with durable-solve plumbing: a non-nil
// frontier restores C for every level <= f.Level and restarts the sweep at
// f.Level+1, and a non-nil ck fires at every completed level barrier j < K
// (all sets of the level are final, none of the next level started). Cost, C
// and Ops are bit-identical to an uninterrupted Solve.
func SolveCheckpointedCtx(ctx context.Context, p *Problem, f *Frontier, ck Checkpointer) (*Solution, error) {
	return solve(ctx, p, 1, nil, f, ck)
}

// SolveParallelPooledCtx is SolveCheckpointedCtx with each level split into
// `workers` Gosper rank ranges run on a stripe pool — the natural way to run
// the backward induction on shared-memory hardware (the paper's machine is
// internal/parttsolve). `workers` <= 0 selects GOMAXPROCS; it sets the unit
// of load balancing, not how many goroutines exist, so concurrent solves
// share one bounded worker set. A nil pool selects the process-wide one. A
// panic in any range is recovered and returned as an error. Results are
// bit-identical to Solve for every worker count.
func SolveParallelPooledCtx(ctx context.Context, p *Problem, workers int, pool *stripe.Pool, f *Frontier, ck Checkpointer) (*Solution, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if pool == nil {
		pool = stripe.Shared()
	}
	return solve(ctx, p, workers, pool, f, ck)
}

// solve is the one G=1 sweep behind every exact entry point: the problem
// compiled once, and a pooled cost plane, optionally seeded from a frontier,
// filled by Kernel.Cell under the level driver.
func solve(ctx context.Context, p *Problem, ranges int, pool *stripe.Pool, f *Frontier, ck Checkpointer) (*Solution, error) {
	kn, err := compile(p)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	from := 1
	if f != nil {
		if err := f.Validate(p.K); err != nil {
			return nil, err
		}
		from = f.Level + 1
	}
	size := 1 << uint(p.K)
	sol := &Solution{C: getU64(p.K), Ops: int64(size-1) * int64(len(p.Actions)+1)}
	c := sol.C
	if f != nil {
		copy(c, f.C)
	}
	// The pooled plane comes back dirty. C(∅) is the only cell read before
	// the sweep writes it; every other cell is written at its own level,
	// before any superset reads it.
	c[0] = 0
	d := &sweep{k: p.K, ranges: ranges, pool: pool,
		visit: func(_ int, s Set) { c[s], _ = kn.Cell(c, s) }}
	if ck != nil {
		d.barrier = func(level int) error {
			if err := ck.CheckpointLevel(level, sol); err != nil {
				return fmt.Errorf("core: checkpoint at level %d: %w", level, err)
			}
			return nil
		}
	}
	if err := d.run(ctx, from); err != nil {
		sol.Release()
		return nil, err
	}
	sol.Cost = c[size-1]
	return sol, nil
}

// Adequate reports whether the instance admits a successful procedure.
func (s *Solution) Adequate() bool { return s.Cost < Inf }

// SolveMemo is an independent top-down implementation of the same
// recurrence, used to cross-check Solve: memoized recursion with an explicit
// on-stack guard instead of evaluation-order reasoning. It returns only C(U).
func SolveMemo(p *Problem) (uint64, error) {
	return SolveMemoCtx(context.Background(), p)
}

// SolveMemoCtx is SolveMemo with cancellation: the context is polled every
// ctxStride memoized evaluations, so the top-down sweep honors deadlines and
// disconnects like every other solver entry point.
func SolveMemoCtx(ctx context.Context, p *Problem) (uint64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	size := 1 << uint(p.K)
	memo := make([]uint64, size)
	known := make([]bool, size)
	psum := make([]uint64, size)
	for s := 1; s < size; s++ {
		low := s & -s
		psum[s] = satAdd(psum[s&(s-1)], p.Weights[bits.TrailingZeros(uint(low))])
	}
	known[0] = true
	var evals int
	var ctxErr error
	var rec func(s Set) uint64
	rec = func(s Set) uint64 {
		if known[s] {
			return memo[s]
		}
		evals++
		if evals&(ctxStride-1) == 0 && ctxErr == nil {
			ctxErr = ctx.Err()
		}
		if ctxErr != nil {
			return Inf // unwind; the partial memo is discarded
		}
		best := Inf
		for _, a := range p.Actions {
			inter := s & a.Set
			diff := s &^ a.Set
			if inter == 0 || (!a.Treatment && diff == 0) {
				continue // would not shrink S: excluded
			}
			cost := satMul(a.Cost, psum[s])
			if a.Treatment {
				cost = satAdd(cost, rec(diff))
			} else {
				cost = satAdd(cost, satAdd(rec(inter), rec(diff)))
			}
			if cost < best {
				best = cost
			}
		}
		memo[s], known[s] = best, true
		return best
	}
	got := rec(Universe(p.K))
	if ctxErr != nil {
		return 0, ctxErr
	}
	return got, nil
}

// String summarizes the solution.
func (s *Solution) String() string {
	if !s.Adequate() {
		return "inadequate instance (no successful procedure)"
	}
	return fmt.Sprintf("C(U) = %d over %d subsets (%d ops)", s.Cost, len(s.C), s.Ops)
}
