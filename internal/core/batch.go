package core

import (
	"context"
	"fmt"

	"repro/internal/stripe"
)

// Batched solving: SolveBatchCtx splits several instances across the stripe
// pool, and each shard solves its instances one after another with the same
// exact sweep a solo solve runs, on its share of the requested ranges. The
// instances are independent — they need not share K, actions or a subset
// lattice — so every result is bit-identical to solving that instance alone.
// Enumerating a shared lattice once and re-pricing every (set, action,
// instance) forgoes Kernel.Cost's early exits; that loop lost to this split
// on every serving domain but SystematicBiology (EXPERIMENTS.md, "Batch
// shard").

// SolveBatchCtx solves a batch of instances. It runs min(workers, G) shards
// on the given stripe pool (nil selects the process-wide one; `workers` <= 0
// selects GOMAXPROCS). Shard sh solves instances sh, sh+shards, … in turn,
// each as SolveParallelPooledCtx would with max(1, workers/G) ranges: one
// range runs the numeric-order sweep, more run its subcube blocks in
// parallel. A batch of one is therefore an ordinary solve on `workers`
// ranges. Each returned Solution is cost-only like every other solver's and
// bit-identical to Solve on that instance alone. An empty batch is refused.
// On any failure every Solution already produced is released, and the first
// error in instance order is returned, wrapped with that instance's index:
// the context's error on cancellation, "solver worker panicked" on a panic.
func SolveBatchCtx(ctx context.Context, ps []*Problem, workers int, pool *stripe.Pool) ([]*Solution, error) {
	if len(ps) == 0 {
		return nil, fmt.Errorf("core: empty batch")
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
