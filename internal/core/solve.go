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
	// Ops is the paper's T_1 = (2^K−1)(N+1): one operation per (S, action)
	// evaluation plus one per subset for the final minimum, the numerator of
	// its speedup S = T_1/T_p. It counts the full recurrence, not the
	// evaluations a sweep performs: Kernel.Cost's early exit skips many, and
	// Ops stays the paper's figure so that speedups remain comparable.
	Ops int64
}

// Solve runs the backward-induction dynamic program (the paper's sequential
// baseline, after Garey) in numeric order, s = 1..2^K−1: every C(S) reads
// only proper subsets of S, which are numerically smaller and so already
// final. Time O(N·2^K), space one 2^K cost plane.
func Solve(p *Problem) (*Solution, error) {
	return SolveCtx(context.Background(), p)
}

// SolveCtx is Solve with cancellation: the context is polled every ctxStride
// subsets, so a deadline or client disconnect stops the O(N·2^K) sweep
// promptly. On cancellation the context's error is returned and the partial
// table is discarded.
func SolveCtx(ctx context.Context, p *Problem) (*Solution, error) {
	return solve(ctx, p, 1, nil, nil)
}

// Progress is a sweep's progress hook. The sweep calls it K−1 times, on the
// goroutine that called the solver, with the number of nonempty subsets
// whose cost is final (done, strictly increasing) out of 2^K−1 (total); it
// never sees the cost plane. A sweep cut into 2^j blocks by its top j
// objects (see SolveParallelPooledCtx) reports done = 2^i−1 for
// i = 1..K−j while block 0, the subsets of the low K−j objects, fills in
// numeric order, then at each barrier between popcounts of blocks but the
// last. A one-range sweep is one block, j = 0: done = 2^i−1 for
// i = 1..K−1. An error from the hook aborts the solve, which returns the
// error wrapped and no Solution.
type Progress func(done, total uint64) error

// noFrontier is the type of the slot where SolveCheckpointedCtx and
// SolveParallelPooledCtx took a resume frontier before engine resume was
// retired. No other package can name it, so only an untyped nil fits. The
// slot is kept for the perfbench module (its own go.mod, so `go test ./...`
// does not build it), which passes nil there at perfbench/workloads.go:827
// and perfbench/replay.go:111 and :114; it goes with the next perfbench
// change.
type noFrontier struct{}

// SolveCheckpointedCtx is SolveCtx with a progress hook; a nil hook makes it
// SolveCtx. The third argument must be nil (see noFrontier).
func SolveCheckpointedCtx(ctx context.Context, p *Problem, _ *noFrontier, progress Progress) (*Solution, error) {
	return solve(ctx, p, 1, nil, progress)
}

// SolveParallelPooledCtx is SolveCtx run on up to `workers` shards of a
// stripe pool. The lattice is cut into 2^j subcube blocks by its top j
// objects, each swept in numeric order; the blocks of one popcount are
// independent and run in parallel, popcount by popcount, j+1 barriers in
// all, the shape of the paper's ASCEND over hypercube dimensions (its
// machine is internal/parttsolve). `workers` <= 0 selects GOMAXPROCS; it
// sets the unit of load balancing, not how many goroutines exist, so
// concurrent solves share one bounded worker set. j is the most bits that
// leave every block enough work to repay the pool's hand-off and make at
// most 32 blocks per worker; `workers` == 1, or an instance too small for 4
// blocks, runs SolveCtx's numeric-order sweep. A nil pool selects the process-wide one. A panic in
// any block is recovered and returned as an error. Results are
// bit-identical to Solve for every worker count. The fifth argument must
// be nil (see noFrontier); a non-nil progress hook is called as Progress
// says.
func SolveParallelPooledCtx(ctx context.Context, p *Problem, workers int, pool *stripe.Pool, _ *noFrontier, progress Progress) (*Solution, error) {
	workers, pool = poolWidth(workers, pool)
	return solve(ctx, p, workers, pool, progress)
}

// poolWidth resolves the parallel entry points' defaults: `workers` <= 0
// selects GOMAXPROCS, and a nil pool the process-wide one.
func poolWidth(workers int, pool *stripe.Pool) (int, *stripe.Pool) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if pool == nil {
		pool = stripe.Shared()
	}
	return workers, pool
}

// solve is the one G=1 sweep behind every exact entry point: the problem
// compiled once, and a pooled cost plane filled by Kernel.Cost in subcube
// blocks, one block when the solve has one range.
func solve(ctx context.Context, p *Problem, ranges int, pool *stripe.Pool, progress Progress) (*Solution, error) {
	kn, err := compile(p)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	size := 1 << uint(p.K)
	sol := &Solution{C: getU64(p.K), Ops: int64(size-1) * int64(len(p.Actions)+1)}
	c := sol.C
	// The pooled plane comes back dirty. C(∅) is the only cell read before
	// the sweep writes it; every other cell is written before any superset
	// reads it.
	c[0] = 0
	d := &sweep{ctx: ctx, kn: kn, c: c, k: p.K, j: blockBits(p.K, ranges, len(p.Actions)), progress: progress}
	err = d.run(ranges, pool)
	if err != nil {
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
