package core

import (
	"context"
	"fmt"

	"repro/internal/stripe"
)

// Batched shared-lattice solving (after Ünlüyurt's framing in PAPERS.md):
// instances that differ only in action costs and object weights share the
// identical subset lattice — the same K, the same (Set, Treatment) per
// action index. A group of them is split across the pool: each shard solves
// its instances one after another with the same exact sweep a solo solve
// runs, on its share of the requested ranges. The instances are independent,
// so every result is bit-identical to solving that instance alone.
// Enumerating the lattice once and re-pricing every (set, action, instance)
// forgoes Kernel.Cost's early exits; that loop lost to this split on every
// serving domain but SystematicBiology (EXPERIMENTS.md, "Batch shard").

// SameLattice reports whether a and b share a subset lattice: equal K and
// per-index equal (Set, Treatment). Costs, weights, and names are free.
func SameLattice(a, b *Problem) bool {
	if a.K != b.K || len(a.Actions) != len(b.Actions) {
		return false
	}
	for i := range a.Actions {
		if a.Actions[i].Set != b.Actions[i].Set || a.Actions[i].Treatment != b.Actions[i].Treatment {
			return false
		}
	}
	return true
}

// SolveBatch is SolveBatchCtx on the background context's plumbing-free
// path; see SolveBatchCtx.
func SolveBatch(ps []*Problem, workers int) ([]*Solution, error) {
	return SolveBatchCtx(context.Background(), ps, workers, nil)
}

// SolveBatchCtx solves a group of same-lattice instances. It runs
// min(workers, G) shards on the given stripe pool (nil selects the
// process-wide one; `workers` <= 0 selects GOMAXPROCS). Shard sh solves
// instances sh, sh+shards, … in turn, each as SolveParallelPooledCtx would
// with max(1, workers/G) ranges: one range runs the numeric-order sweep, more
// run its subcube blocks in parallel. A group of one is therefore an ordinary solve on
// `workers` ranges. Each returned Solution is cost-only like every other
// solver's and bit-identical to Solve on that instance alone. Empty and
// mixed-lattice groups are refused. On any failure every Solution already
// produced is released, and the first error in instance order is returned,
// wrapped with that instance's index: the context's error on cancellation,
// "solver worker panicked" on a panic.
func SolveBatchCtx(ctx context.Context, ps []*Problem, workers int, pool *stripe.Pool) ([]*Solution, error) {
	if len(ps) == 0 {
		return nil, fmt.Errorf("core: empty batch")
	}
	for g, p := range ps {
		if !SameLattice(ps[0], p) {
			return nil, fmt.Errorf("core: batch instance %d does not share instance 0's lattice", g)
		}
	}
	workers, pool = poolWidth(workers, pool)
	G := len(ps)
	shards, ranges := min(workers, G), max(1, workers/G)
	out := make([]*Solution, G)
	errs := make([]error, G)
	// Each shard stops at its first failure: a cancelled context fails
	// every later solve too, and the first error in instance order is all
	// the caller sees. solve's sweeps recover their own panics.
	pool.Run(shards, func(sh int) {
		for g := sh; g < G; g += shards {
			if out[g], errs[g] = solve(ctx, ps[g], ranges, pool, nil); errs[g] != nil {
				return
			}
		}
	})
	for g, err := range errs {
		if err != nil {
			for _, sol := range out {
				sol.Release()
			}
			return nil, fmt.Errorf("core: batch instance %d: %w", g, err)
		}
	}
	return out, nil
}
