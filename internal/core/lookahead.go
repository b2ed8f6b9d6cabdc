package core

import (
	"fmt"
	"math"
)

// This file implements a depth-d lookahead policy: the anytime middle ground
// between the one-step greedy and the exponential exact DP. At each realized
// candidate set the policy evaluates every applicable action by expanding
// the recurrence exactly for d levels and pricing the horizon sets with the
// greedy completion cost, then commits to the best action and repeats with a
// fresh horizon. Depth 0 degenerates to pure greedy pricing; depth >= |S|
// expands every branch to empty sets and is exact. This is how one would
// actually deploy the TT machinery when 2^k state space is out of reach.

// lookaheadSolver keeps one memo table for the whole search: V_d(S) under
// the key d<<32 | S, so the greedy completion costs at the horizon are the
// d = 0 entries. Subset masses come from the compiled kernel.
type lookaheadSolver struct {
	p    *Problem
	kn   Kernel
	memo *SetTable[uint64]
}

// LookaheadTree builds a valid procedure tree with depth-d lookahead.
func LookaheadTree(p *Problem, depth int) (*Node, error) {
	kn, err := compile(p)
	if err != nil {
		return nil, err
	}
	if depth < 0 {
		return nil, fmt.Errorf("core: negative lookahead depth %d", depth)
	}
	// Every action strictly shrinks the set it applies to, so V_d(S) is the
	// exact C(S) for every d >= |S|: depths past K change no value and the
	// clamp keeps d inside the key's high word.
	ls := &lookaheadSolver{p: p, kn: kn, memo: NewSetTable[uint64](math.MaxInt)}
	return ls.build(Universe(p.K), min(depth, p.K))
}

// LookaheadCost is LookaheadTree followed by TreeCost.
func LookaheadCost(p *Problem, depth int) (uint64, error) {
	tree, err := LookaheadTree(p, depth)
	if err != nil {
		return 0, err
	}
	return TreeCost(p, tree)
}

func (ls *lookaheadSolver) build(s Set, depth int) (*Node, error) {
	if s == 0 {
		return nil, nil
	}
	bestIdx := -1
	best := Inf
	ps := ls.kn.Weight(s)
	for i, a := range ls.p.Actions {
		cost, ok := ls.actionValue(s, ps, a, depth)
		if !ok {
			continue
		}
		if cost < best {
			best, bestIdx = cost, i
		}
	}
	if bestIdx < 0 {
		return nil, fmt.Errorf("core: lookahead stuck at set %v (inadequate instance?)", s)
	}
	a := ls.p.Actions[bestIdx]
	n := &Node{Action: bestIdx, Set: s}
	var err error
	if !a.Treatment {
		if n.Pos, err = ls.build(s&a.Set, depth); err != nil {
			return nil, err
		}
	}
	if n.Neg, err = ls.build(s&^a.Set, depth); err != nil {
		return nil, err
	}
	return n, nil
}

// actionValue prices applying action a at set s, of mass ps, with depth
// levels of exact expansion below it. ok is false for inapplicable actions.
func (ls *lookaheadSolver) actionValue(s Set, ps uint64, a Action, depth int) (uint64, bool) {
	inter := s & a.Set
	diff := s &^ a.Set
	if inter == 0 || (!a.Treatment && diff == 0) {
		return 0, false
	}
	cost := satMul(a.Cost, ps)
	if a.Treatment {
		return satAdd(cost, ls.estimate(diff, depth)), true
	}
	return satAdd(cost, satAdd(ls.estimate(inter, depth), ls.estimate(diff, depth))), true
}

// estimate is V_d(S): exact expansion for d levels, greedy completion at the
// horizon.
func (ls *lookaheadSolver) estimate(s Set, depth int) uint64 {
	if s == 0 {
		return 0
	}
	if depth == 0 {
		return ls.greedyCost(s)
	}
	key := uint64(depth)<<32 | uint64(s)
	if v, ok := ls.memo.Get(key); ok {
		return v
	}
	best := Inf
	ps := ls.kn.Weight(s)
	for _, a := range ls.p.Actions {
		if v, ok := ls.actionValue(s, ps, a, depth-1); ok && v < best {
			best = v
		}
	}
	ls.memo.Put(key, best)
	return best
}

// greedyCost prices a set with GreedyTree's rule (GreedyPick), memoized
// across the whole search.
func (ls *lookaheadSolver) greedyCost(s Set) uint64 {
	if s == 0 {
		return 0
	}
	if v, ok := ls.memo.Get(uint64(s)); ok {
		return v
	}
	i := ls.kn.GreedyPick(s)
	if i < 0 {
		ls.memo.Put(uint64(s), Inf)
		return Inf
	}
	a := ls.p.Actions[i]
	v := satMul(a.Cost, ls.kn.Weight(s))
	if !a.Treatment {
		v = satAdd(v, ls.greedyCost(s&a.Set))
	}
	v = satAdd(v, ls.greedyCost(s&^a.Set))
	ls.memo.Put(uint64(s), v)
	return v
}
