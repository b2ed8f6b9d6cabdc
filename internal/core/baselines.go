package core

import "fmt"

// This file holds the comparison solver: a greedy heuristic of the kind
// the binary-testing literature (the paper's refs [1][2][6][7][11]) uses
// when the exponential DP is out of reach. The experiment harness (E14)
// quantifies the optimality gap of the greedy on the synthetic workloads.

// GreedyTree builds a valid (generally sub-optimal) procedure tree by
// applying GreedyPick's one-step cost-effectiveness rule at every candidate
// set it reaches. It compiles the problem once and reads every subset mass
// from the kernel's per-byte tables, so it keeps no 2^K state and no memo:
// the bounded-suboptimality plane (internal/approx) runs it at every K the
// Set type can express. Returns an error when no applicable action exists
// at some reachable set, which on a validated instance means inadequacy.
func GreedyTree(p *Problem) (*Node, error) {
	kn, err := compile(p)
	if err != nil {
		return nil, err
	}
	var build func(s Set) (*Node, error)
	build = func(s Set) (*Node, error) {
		if s == 0 {
			return nil, nil
		}
		i := kn.GreedyPick(s)
		if i < 0 {
			return nil, fmt.Errorf("core: greedy stuck at set %v (inadequate instance?)", s)
		}
		a := p.Actions[i]
		n := &Node{Action: i, Set: s}
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

// GreedyPick is the ratio rule GreedyTree and the lookahead's horizon
// share; approx's gain greedy takes its fallback. At candidate set S it
// scores every applicable action by expected cost paid now per unit of
// progress —
//
//	treatment: t_i·p(S) / p(S∩T_i)        (weight resolved outright)
//	test:      t_i·p(S) / min(p(S∩T_i), p(S−T_i))
//
// (a balanced cheap test scores well; an expensive or lopsided one badly),
// and returns the lowest score's index, the first on ties. It walks the
// kernel's action-order records, as Cell does, and reads every mass from
// its tables; p(S−T_i) is p(S) − p(S∩T_i), exact within Validate's bounds.
// Zero-progress denominators disqualify an action. When every action is
// disqualified, as at a set of weightless objects, any treatment
// intersecting S still discharges part of it, so the first one is
// returned; -1 means no treatment intersects S either.
func (kn *Kernel) GreedyPick(s Set) int {
	ps := kn.Weight(s)
	recs := kn.mem[kn.words : kn.words+kn.n] // action order
	best := -1
	var bestNum, bestDen uint64 // compare num/den as cross products
	for i, r := range recs {
		inter := s & Set(r)
		test := r&treatBit == 0
		if inter == 0 || (test && inter == s) {
			continue
		}
		den := kn.Weight(inter)
		if test {
			den = min(den, ps-den)
		}
		if den == 0 {
			continue // splits only zero-weight mass: no progress
		}
		num := r >> 32 * ps
		if best < 0 || satMul(num, bestDen) < satMul(bestNum, den) {
			best, bestNum, bestDen = i, num, den
		}
	}
	if best >= 0 {
		return best
	}
	for i, r := range recs {
		if r&treatBit != 0 && s&Set(r) != 0 {
			return i
		}
	}
	return -1
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
