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
// instance is exactly Kernel.Cell's, in the same order).

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
// instance alone. `workers` and the pool mean what they mean to
// SolveParallelPooledCtx: at most `workers` Gosper ranges per level (<= 0
// selects GOMAXPROCS), each level's work counting every instance, on the
// given stripe pool (nil selects the process-wide one). The context is
// polled every ctxStride enumeration steps and at level barriers. A group of
// one is an ordinary solve.
func SolveBatchCtx(ctx context.Context, ps []*Problem, workers int, pool *stripe.Pool) ([]*Solution, error) {
	if len(ps) == 0 {
		return nil, fmt.Errorf("core: empty batch")
	}
	// One kernel per instance: instance 0's records are the shared lattice,
	// and every instance contributes its own weight tables.
	kns := make([]Kernel, len(ps))
	for g, p := range ps {
		kn, err := compile(p)
		if err != nil {
			return nil, fmt.Errorf("core: batch instance %d: %w", g, err)
		}
		if !SameLattice(ps[0], p) {
			return nil, fmt.Errorf("core: batch instance %d does not share instance 0's lattice", g)
		}
		kns[g] = kn
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	workers, pool = poolWidth(workers, pool)
	G := len(ps)
	if G == 1 {
		sol, err := solve(ctx, ps[0], workers, pool, nil)
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
	recs := kns[0].records() // lattice structure: the records in action order
	// scratch[r] holds range r's p_g(S) for the current subset.
	scratch := make([][]uint64, workers)
	for r := range scratch {
		scratch[r] = make([]uint64, G)
	}

	d := &sweep{k: k, ranges: workers, work: n * G, pool: pool, visit: func(r int, s Set) {
		// The row of S holds the running minima. Every read below is of a
		// strict subset's row, finished at an earlier level.
		best := cg[int(s)*G : int(s)*G+G]
		psG := scratch[r][:len(best)]
		for g := range kns {
			psG[g] = kns[g].Weight(s)
			best[g] = Inf
		}
		// Enumeration work — once per (subset, action)...
		for ai, rec := range recs {
			inter := s & Set(rec)
			diff := s &^ Set(rec)
			treatment := rec&treatBit != 0
			if inter == 0 || (!treatment && diff == 0) {
				continue
			}
			cRow := costG[ai*G : ai*G+len(best)]
			dRow := cg[int(diff)*G : int(diff)*G+len(best)]
			// ...re-pricing work — the only per-instance part. The
			// products are exact within Validate's bounds, as in Kernel.Cell.
			if treatment {
				for g := range best {
					if cost := addSat(cRow[g]*psG[g], dRow[g]); cost < best[g] {
						best[g] = cost
					}
				}
			} else {
				iRow := cg[int(inter)*G : int(inter)*G+len(best)]
				for g := range best {
					if cost := addSat(cRow[g]*psG[g], addSat(iRow[g], dRow[g])); cost < best[g] {
						best[g] = cost
					}
				}
			}
		}
	}}
	if err := d.run(ctx); err != nil {
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
