package core

import (
	"context"
	"fmt"

	"repro/internal/stripe"
)

// Batched shared-lattice solving (ISSUE 7 tentpole c, after Ünlüyurt's
// framing in PAPERS.md): instances that differ only in action costs and
// object weights share the identical subset lattice — the same K, the same
// (Set, Treatment) per action index — so the expensive part of the sweep
// (Gosper enumeration, S∩T_i / S−T_i computation, the adequacy guards) can
// run ONCE for the whole group while only the cheap saturating arithmetic is
// repeated per instance ("enumerate once, re-price per instance").
//
// The group sweeps a single interleaved cost table CG with CG[s*G + g] =
// C_g(S): the G instances' values for one subset are adjacent, so the
// per-action reads CG[inter*G..], CG[diff*G..] bring every instance's
// operand in with the same cache line(s) — one enumeration's worth of misses
// serves the whole group. Results are destrided into per-instance cost-only
// Solutions, bit-identical to solving each instance alone (the arithmetic per
// instance is exactly Cell's, in the same order).

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

// SolveBatchCtx solves a group of same-lattice instances in one
// level-synchronous sweep over the shared subset lattice, re-pricing every
// subset for all instances at each enumeration step. Each returned Solution
// is cost-only like every other solver's and bit-identical to Solve on that
// instance alone. `workers` sets how many Gosper ranges each level is split
// into, as in SolveParallelPooledCtx, but <= 0 means 1: a batch runs on one
// core unless asked otherwise. A nil pool selects the process-wide stripe
// pool. The context is polled every ctxStride enumeration steps and at level
// barriers. A group of one is an ordinary solve.
func SolveBatchCtx(ctx context.Context, ps []*Problem, workers int, pool *stripe.Pool) ([]*Solution, error) {
	if len(ps) == 0 {
		return nil, fmt.Errorf("core: empty batch")
	}
	for g, p := range ps {
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("core: batch instance %d: %w", g, err)
		}
		if !SameLattice(ps[0], p) {
			return nil, fmt.Errorf("core: batch instance %d does not share instance 0's lattice", g)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = 1
	}
	if pool == nil {
		pool = stripe.Shared()
	}
	G := len(ps)
	if G == 1 {
		sol, err := solve(ctx, ps[0], workers, pool, nil, nil)
		if err != nil {
			return nil, err
		}
		return []*Solution{sol}, nil
	}
	k := ps[0].K
	size := 1 << uint(k)
	n := len(ps[0].Actions)

	// Interleaved tables: cg[s*G+g] is C_g(S); costG[i*G+g] is instance g's
	// cost for action i, so the inner re-pricing loop walks both unit-stride.
	cg := make([]uint64, size*G)
	costG := make([]uint64, n*G)
	for g, p := range ps {
		for i, a := range p.Actions {
			costG[i*G+g] = a.Cost
		}
	}
	actions := ps[0].Actions // lattice structure: Set/Treatment per index
	// scratch[r] holds range r's p_g(S) and their mulLimit for the current
	// subset.
	scratch := make([][]uint64, workers)
	for r := range scratch {
		scratch[r] = make([]uint64, 2*G)
	}

	d := &sweep{k: k, ranges: workers, pool: pool, visit: func(r int, s Set) {
		// The row of S holds the running minima. Every read below is of a
		// strict subset's row, finished at an earlier level.
		best := cg[int(s)*G : int(s)*G+G]
		psG, limG := scratch[r][:len(best)], scratch[r][G:G+len(best)]
		for g, p := range ps {
			psG[g] = psumOf(p.Weights, s)
			limG[g] = mulLimit(psG[g])
			best[g] = Inf
		}
		// Enumeration work — once per (subset, action)...
		for ai := range actions {
			a := &actions[ai]
			inter := s & a.Set
			diff := s &^ a.Set
			if inter == 0 || (!a.Treatment && diff == 0) {
				continue
			}
			cRow := costG[ai*G : ai*G+len(best)]
			dRow := cg[int(diff)*G : int(diff)*G+len(best)]
			// ...re-pricing work — the only per-instance part.
			if a.Treatment {
				for g := range best {
					if cost := satAdd(satMulLim(cRow[g], psG[g], limG[g]), dRow[g]); cost < best[g] {
						best[g] = cost
					}
				}
			} else {
				iRow := cg[int(inter)*G : int(inter)*G+len(best)]
				for g := range best {
					if cost := satAdd(satMulLim(cRow[g], psG[g], limG[g]), satAdd(iRow[g], dRow[g])); cost < best[g] {
						best[g] = cost
					}
				}
			}
		}
	}}
	if err := d.run(ctx, 1); err != nil {
		return nil, err
	}

	// Destride into per-instance cost-only solutions on pooled tables.
	out := make([]*Solution, G)
	for g := range ps {
		c := getU64(k)
		for s := 0; s < size; s++ {
			c[s] = cg[s*G+g]
		}
		out[g] = &Solution{
			C:    c,
			Cost: c[size-1],
			Ops:  int64(size-1) * int64(n+1),
		}
	}
	return out, nil
}
