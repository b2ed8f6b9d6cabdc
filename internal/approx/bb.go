package approx

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
)

// AND/OR branch-and-bound over candidate sets. Each candidate set is an OR
// node (choose one action); a test's two outcome subproblems are its AND
// children. Depth-first search with:
//
//   - incumbent pruning: a subproblem whose lower bound reaches the budget
//     inherited from the incumbent is cut off, and the bound it returns is
//     still a true lower bound on C(S);
//   - memoization in a set-keyed table: exact values are final; pruned
//     values are stored as reusable lower bounds (they never depended on
//     the incumbent, only the decision to stop did);
//   - action ordering by optimistic estimate, ties by action index, so the
//     likely-best child is explored first and tightens the local budget
//     for its siblings;
//   - bound propagation: a test's second child is solved under the budget
//     left after the first child's exact value, and the first under the
//     budget left after the second's lower bound.
//
// The search is interruptible at every expansion (context, deadline, node
// budget); interruption poisons exactness, never soundness — values
// returned after a stop are still valid lower bounds.
type bb struct {
	st       *state
	memo     *core.SetTable[bbEntry]
	cands    []cand // candidate stack: each node's above its caller's
	nodes    int64
	budget   int64
	ctx      context.Context
	deadline time.Time
	stopped  bool
}

// bbEntry is one memoized subproblem. When exact, val is C(S) and choice
// the minimizing action (so the optimal tree is extractable afterwards);
// otherwise val is a lower bound on C(S) and choice is -1.
type bbEntry struct {
	val    uint64
	choice int32
	exact  bool
}

// cand is one applicable action at a node, ordered by its estimate.
type cand struct {
	idx  int
	base uint64 // action cost paid at s: t_i·p(s)
	est  uint64 // optimistic total: base + child lower bounds
}

// solve returns (value, exact) for candidate set s under budget ub: exact
// means value = C(S) and requires value < ub; otherwise value is a lower
// bound on C(S). The asymmetry is the classic B&B contract — once a
// subproblem provably cannot beat the budget, its precise value is
// irrelevant to every caller.
func (b *bb) solve(s core.Set, ub uint64) (uint64, bool) {
	if s == 0 {
		return 0, true
	}
	e, ok := b.memo.Get(uint64(s))
	if ok {
		if e.exact {
			return e.val, e.val < ub
		}
		if e.val >= ub {
			return e.val, false
		}
	}
	lb := b.st.lower(s)
	if ok && e.val > lb {
		lb = e.val // an earlier deeper search proved a tighter bound
	}
	if lb >= ub {
		b.memo.Put(uint64(s), bbEntry{val: lb, choice: -1})
		return lb, false
	}
	b.checkStop()
	if b.stopped {
		return lb, false
	}
	b.nodes++

	ps := b.st.kn.Weight(s)
	// This node's candidates sit on the stack above its caller's and are
	// popped on return. Each level of the recursion strictly shrinks s, so
	// at most K+1 nodes hold candidates at once and the stack never outgrows
	// its (K+1)·N capacity.
	top := len(b.cands)
	minOver := core.Inf // min lower bound among actions not searched to exactness
	for i, a := range b.st.p.Actions {
		inter := s & a.Set
		diff := s &^ a.Set
		if inter == 0 || (!a.Treatment && diff == 0) {
			continue
		}
		base := core.SatMul(a.Cost, ps)
		est := core.SatAdd(base, b.st.lower(diff))
		if !a.Treatment {
			// Cheap ordering refinement: a child already solved exactly
			// sharpens this action's estimate for free.
			pos, ok := b.memo.Get(uint64(inter))
			if !ok || !pos.exact {
				pos.val = b.st.lower(inter)
			}
			est = core.SatAdd(est, pos.val)
		}
		b.cands = append(b.cands, cand{idx: i, base: base, est: est})
	}

	best := core.Inf
	bestIdx := int32(-1)
	localUB := ub
	cands := b.cands[top:]
	for k := range cands {
		// Visit candidates in (est, action index) order by selecting the
		// least remaining one: the search leaves the loop at the first
		// candidate it cannot explore, so only that prefix needs ordering.
		m := k
		for j := k + 1; j < len(cands); j++ {
			if cands[j].est < cands[m].est || cands[j].est == cands[m].est && cands[j].idx < cands[m].idx {
				m = j
			}
		}
		cands[k], cands[m] = cands[m], cands[k]
		c := cands[k]
		if b.stopped || c.est >= localUB {
			// This and every later candidate go unexplored, and none has a
			// smaller estimate: it bounds them all, and the aggregate below
			// stays a true lower bound.
			minOver = min(minOver, c.est)
			break
		}
		a := b.st.p.Actions[c.idx]
		inter := s & a.Set
		diff := s &^ a.Set
		if a.Treatment {
			sub, exact := b.solve(diff, budgetLeft(localUB, c.base))
			total := core.SatAdd(c.base, sub)
			if !exact {
				minOver = min(minOver, total)
				continue
			}
			if total < localUB {
				best, bestIdx, localUB = total, int32(c.idx), total
			} else {
				minOver = min(minOver, total)
			}
			continue
		}
		rem := budgetLeft(localUB, c.base)
		c1, ex1 := b.solve(inter, budgetLeft(rem, b.st.lower(diff)))
		if !ex1 {
			minOver = min(minOver, core.SatAdd(c.base, core.SatAdd(c1, b.st.lower(diff))))
			continue
		}
		c2, ex2 := b.solve(diff, budgetLeft(rem, c1))
		total := core.SatAdd(c.base, core.SatAdd(c1, c2))
		if !ex2 {
			minOver = min(minOver, total)
			continue
		}
		if total < localUB {
			best, bestIdx, localUB = total, int32(c.idx), total
		} else {
			minOver = min(minOver, total)
		}
	}
	b.cands = b.cands[:top]

	if bestIdx >= 0 && best <= minOver && !b.stopped {
		// Every other action was either searched to exactness (and lost) or
		// pruned with a bound that was ≥ the budget in force — which was
		// never below the final best — so best is C(S).
		b.memo.Put(uint64(s), bbEntry{val: best, choice: bestIdx, exact: true})
		return best, true
	}
	// No action beat the budget (or the search was interrupted): the least
	// of the per-action bounds, floored by the set's own bound, is a valid
	// lower bound on C(S). When no action applies at all, minOver stays Inf
	// and so is C(S) — but that cannot be pruned-away knowledge, so it is
	// stored as a bound, which Inf correctly is.
	v := max(lb, minOver)
	if best < v {
		v = best
	}
	b.memo.Put(uint64(s), bbEntry{val: v, choice: -1})
	return v, false
}

// checkStop polls the external budgets: context, wall deadline, node count.
// The deadline is only consulted every 1024 expansions to keep time.Now off
// the hot path.
func (b *bb) checkStop() {
	if b.stopped {
		return
	}
	if b.budget > 0 && b.nodes >= b.budget {
		b.stopped = true
		return
	}
	if b.nodes&1023 == 0 {
		if b.ctx.Err() != nil {
			b.stopped = true
			return
		}
		if !b.deadline.IsZero() && time.Now().After(b.deadline) {
			b.stopped = true
		}
	}
}

// budgetLeft is the budget a child inherits after its siblings' committed
// cost: saturating subtraction, where an exhausted budget (0) makes any
// child bound an immediate cutoff.
func budgetLeft(ub, spent uint64) uint64 {
	if ub == core.Inf {
		return core.Inf
	}
	if spent >= ub {
		return 0
	}
	return ub - spent
}

// extract rebuilds the optimal tree from the memo's exact choices; it is
// only called after solve returned exact for the root, so every subproblem
// on the optimal path has an exact entry with a recorded choice.
func (b *bb) extract(s core.Set) (*core.Node, error) {
	if s == 0 {
		return nil, nil
	}
	e, ok := b.memo.Get(uint64(s))
	if !ok || !e.exact || e.choice < 0 {
		return nil, fmt.Errorf("approx: no exact memo entry for set %v", s)
	}
	a := b.st.p.Actions[e.choice]
	n := &core.Node{Action: int(e.choice), Set: s}
	var err error
	if !a.Treatment {
		if n.Pos, err = b.extract(s & a.Set); err != nil {
			return nil, err
		}
	}
	if n.Neg, err = b.extract(s &^ a.Set); err != nil {
		return nil, err
	}
	return n, nil
}
