package core

import (
	"fmt"
	"math/bits"
)

// This file holds the comparison solver: a greedy heuristic of the kind
// the binary-testing literature (the paper's refs [1][2][6][7][11]) uses
// when the exponential DP is out of reach. The experiment harness (E14)
// quantifies the optimality gap of the greedy on the synthetic workloads.

// GreedyTree builds a valid (generally sub-optimal) procedure tree with a
// one-step cost-effectiveness rule: at candidate set S, every applicable
// action is scored by expected cost paid now per unit of progress —
//
//	treatment: t_i·p(S) / p(S∩T_i)        (weight resolved outright)
//	test:      t_i·p(S) / min(p(S∩T_i), p(S−T_i))
//
// (a balanced cheap test scores well; an expensive or lopsided one badly),
// and the lowest score is applied. Zero-progress denominators disqualify an
// action. Returns an error when no applicable action exists at some
// reachable set, which on a validated instance means inadequacy.
//
// Subset masses are computed on demand (memoized, O(|S|) a miss) rather
// than from a precomputed 2^K table: the greedy visits O(K·N) sets, and
// it is the fallback of choice exactly when 2^K state is unaffordable —
// the bounded-suboptimality plane (internal/approx) runs it at every K the
// Set type can express.
func GreedyTree(p *Problem) (*Node, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	masses := make(map[Set]uint64, 4*p.K*len(p.Actions))
	psum := func(s Set) uint64 {
		if s == 0 {
			return 0
		}
		if v, ok := masses[s]; ok {
			return v
		}
		var t uint64
		for rest := uint32(s); rest != 0; rest &= rest - 1 {
			t = satAdd(t, p.Weights[bits.TrailingZeros32(rest)])
		}
		masses[s] = t
		return t
	}
	var build func(s Set) (*Node, error)
	build = func(s Set) (*Node, error) {
		if s == 0 {
			return nil, nil
		}
		bestIdx := -1
		var bestNum, bestDen uint64 // compare num/den as cross products
		for i, a := range p.Actions {
			inter := s & a.Set
			diff := s &^ a.Set
			if inter == 0 || (!a.Treatment && diff == 0) {
				continue
			}
			num := satMul(a.Cost, psum(s))
			var den uint64
			if a.Treatment {
				den = psum(inter)
			} else {
				den = min(psum(inter), psum(diff))
			}
			if den == 0 {
				continue // splits only zero-weight mass: no progress
			}
			if bestIdx < 0 || satMul(num, bestDen) < satMul(bestNum, den) {
				bestIdx, bestNum, bestDen = i, num, den
			}
		}
		if bestIdx < 0 {
			// Zero-weight candidates may remain; any treatment intersecting S
			// still discharges them. Retry accepting zero-progress treatments.
			for i, a := range p.Actions {
				if a.Treatment && s&a.Set != 0 {
					bestIdx = i
					break
				}
			}
		}
		if bestIdx < 0 {
			return nil, fmt.Errorf("core: greedy stuck at set %v (inadequate instance?)", s)
		}
		a := p.Actions[bestIdx]
		n := &Node{Action: bestIdx, Set: s}
		var err error
		if !a.Treatment {
			if n.Pos, err = build(s & a.Set); err != nil {
				return nil, err
			}
		}
		if n.Neg, err = build(s &^ a.Set); err != nil {
			return nil, err
		}
		return n, nil
	}
	return build(Universe(p.K))
}

// GreedyCost is GreedyTree followed by TreeCost.
func GreedyCost(p *Problem) (uint64, error) {
	tree, err := GreedyTree(p)
	if err != nil {
		return 0, err
	}
	return TreeCost(p, tree)
}

// BinaryTesting builds the TT encoding of a classical binary testing
// instance (the problem the paper generalizes): given tests and per-object
// weights, identifying the faulty object is modeled by giving every object a
// singleton treatment of uniform cost treatCost. With treatCost large
// relative to test costs, the optimal procedure isolates objects by testing
// before treating, recovering the classical optimal testing strategy.
func BinaryTesting(weights []uint64, tests []Action, treatCost uint64) *Problem {
	k := len(weights)
	p := &Problem{K: k, Weights: append([]uint64(nil), weights...)}
	p.Actions = append(p.Actions, tests...)
	for j := 0; j < k; j++ {
		p.Actions = append(p.Actions, Action{
			Name:      fmt.Sprintf("treat-%d", j),
			Set:       SetOf(j),
			Cost:      treatCost,
			Treatment: true,
		})
	}
	return p
}
