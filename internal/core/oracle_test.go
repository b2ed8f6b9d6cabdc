package core

import (
	"context"
	"fmt"
	"math/bits"
)

// Test oracles. Each is an implementation of the recurrence (or of the
// lattice enumeration) that shares no code with the sweep under test, so
// agreement is evidence rather than tautology.

// classicSolve is the three-table sweep the solvers ran before they became
// cost-only: C, Choice and PSum planes over all 2^K subsets in increasing
// numeric order (every proper subset precedes its supersets), with
// self-referential applications reading the still-unassigned C[S] as Inf.
// Every entry point's C plane, and every argmin Cell reconstructs, must
// match it bit for bit.
func classicSolve(p *Problem) (c []uint64, choice []int32) {
	size := 1 << uint(p.K)
	c = make([]uint64, size)
	choice = make([]int32, size)
	psum := make([]uint64, size)
	choice[0] = -1
	for s := 1; s < size; s++ {
		low := s & -s
		psum[s] = satAdd(psum[s&(s-1)], p.Weights[bits.TrailingZeros(uint(low))])
		c[s] = Inf
	}
	for s := 1; s < size; s++ {
		best, bestIdx := Inf, int32(-1)
		for i, a := range p.Actions {
			inter := Set(s) & a.Set
			diff := Set(s) &^ a.Set
			cost := satMul(a.Cost, psum[s])
			if a.Treatment {
				if inter == 0 {
					cost = Inf // treatment treats nothing: S−T_i = S
				} else {
					cost = satAdd(cost, c[diff])
				}
			} else {
				if inter == 0 || diff == 0 {
					cost = Inf // test does not split S
				} else {
					cost = satAdd(cost, satAdd(c[inter], c[diff]))
				}
			}
			if cost < best {
				best, bestIdx = cost, int32(i)
			}
		}
		c[s], choice[s] = best, bestIdx
	}
	return c, choice
}

// classicTree builds the procedure tree a stored choice table encodes.
func classicTree(p *Problem, choice []int32, set Set) *Node {
	if set == 0 {
		return nil
	}
	idx := choice[set]
	a := p.Actions[idx]
	n := &Node{Action: int(idx), Set: set}
	if !a.Treatment {
		n.Pos = classicTree(p, choice, set&a.Set)
	}
	n.Neg = classicTree(p, choice, set&^a.Set)
	return n
}

// SolveExhaustive computes C(U) by plain recursion with no memoization:
// every subtree choice is re-enumerated, which is exactly a minimum over
// all successful procedure trees. Exponential; intended for K <= 4 as an
// independent oracle for Solve.
func SolveExhaustive(p *Problem) (uint64, error) {
	return SolveExhaustiveCtx(context.Background(), p)
}

// SolveExhaustiveCtx is SolveExhaustive with cancellation: the context is
// polled every ctxStride recursive evaluations — the enumeration is the most
// explosive solver in the package, so it above all must stay cancellable.
func SolveExhaustiveCtx(ctx context.Context, p *Problem) (uint64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if p.K > 8 {
		return 0, fmt.Errorf("core: exhaustive solver limited to K <= 8, got %d", p.K)
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	psum := make([]uint64, 1<<uint(p.K))
	for s := 1; s < len(psum); s++ {
		low := s & -s
		psum[s] = satAdd(psum[s&(s-1)], p.Weights[bits.TrailingZeros(uint(low))])
	}
	var evals int
	var ctxErr error
	var rec func(s Set) uint64
	rec = func(s Set) uint64 {
		if s == 0 {
			return 0
		}
		evals++
		if evals&(ctxStride-1) == 0 && ctxErr == nil {
			ctxErr = ctx.Err()
		}
		if ctxErr != nil {
			return Inf // unwind; the result is discarded
		}
		best := Inf
		for _, a := range p.Actions {
			inter := s & a.Set
			diff := s &^ a.Set
			if inter == 0 || (!a.Treatment && diff == 0) {
				continue
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
		return best
	}
	got := rec(Universe(p.K))
	if ctxErr != nil {
		return 0, ctxErr
	}
	return got, nil
}

// binomial returns C(n, k) for n <= 32.
func binomial(n, k int) uint64 {
	if k < 0 || k > n {
		return 0
	}
	c := uint64(1)
	for i := 0; i < k; i++ {
		c = c * uint64(n-i) / uint64(i+1)
	}
	return c
}

// subsetsOfSize enumerates all k-bit subsets with exactly j set bits in
// increasing numeric order (Gosper's hack).
func subsetsOfSize(k, j int) []Set {
	if j < 0 || j > k {
		panic(fmt.Sprintf("core: %d-subsets of %d elements", j, k))
	}
	if j == 0 {
		return []Set{0}
	}
	out := make([]Set, 0, binomial(k, j))
	v := uint32(1)<<uint(j) - 1
	limit := uint32(1) << uint(k)
	for v < limit {
		out = append(out, Set(v))
		// Gosper: next higher number with the same popcount.
		c := v & -v
		r := v + c
		v = (r^v)>>2/c | r
	}
	return out
}
