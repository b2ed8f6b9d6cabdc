package approx

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/core"
)

// The information-gain greedy: the second classic policy from the
// sequential-testing literature. Where the ratio rule (core.GreedyTree)
// buys mass resolved per unit cost, this one buys entropy reduction per
// unit cost — on skewed priors the two disagree, and the portfolio keeps
// whichever tree prices cheaper.

// greedyGain builds a valid procedure tree by repeatedly applying the
// action with the highest information gain per unit of expected cost at the
// current candidate set. Gain is measured on the normalized weight
// distribution within s: a test splits s into two observed halves; a
// treatment resolves its covered part outright (the cured-exit branch) and
// leaves the rest. Zero-progress actions are disqualified; a zero-weight
// remainder takes core.Kernel.GreedyPick's fallback, the first intersecting
// treatment, so massless candidates are still discharged.
func (st *state) greedyGain() (*core.Node, error) {
	var build func(s core.Set) (*core.Node, error)
	build = func(s core.Set) (*core.Node, error) {
		if s == 0 {
			return nil, nil
		}
		ps := st.kn.Weight(s)
		hs := st.entropy(s, ps)
		bestIdx := -1
		bestScore := math.Inf(-1)
		for i, a := range st.p.Actions {
			inter := s & a.Set
			diff := s &^ a.Set
			if inter == 0 || (!a.Treatment && diff == 0) {
				continue
			}
			pi := st.kn.Weight(inter)
			pd := ps - pi // p(s−T), exact within Validate's bounds
			if pi == 0 || (!a.Treatment && pd == 0) {
				continue // splits only zero-weight mass: no progress
			}
			// Residual entropy after the action: both test outcomes are
			// observed; a treatment's cured-exit branch carries none.
			after := float64(pd) / float64(ps) * st.entropy(diff, pd)
			if !a.Treatment {
				after += float64(pi) / float64(ps) * st.entropy(inter, pi)
			}
			gain := hs - after
			var score float64
			if a.Cost == 0 {
				score = math.Inf(1)
			} else {
				score = gain / float64(a.Cost)
			}
			if score > bestScore {
				bestIdx, bestScore = i, score
			}
		}
		if bestIdx < 0 {
			// Both rules disqualify exactly the zero-progress actions, so
			// here the ratio rule returns its own fallback.
			bestIdx = st.kn.GreedyPick(s)
		}
		if bestIdx < 0 {
			return nil, fmt.Errorf("approx: gain greedy stuck at set %v (inadequate instance?)", s)
		}
		a := st.p.Actions[bestIdx]
		n := &core.Node{Action: bestIdx, Set: s}
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
	return build(core.Universe(st.p.K))
}

// entropy is the Shannon entropy (bits) of the normalized weight
// distribution on s, whose total mass ps the caller already holds; 0 for
// massless sets.
func (st *state) entropy(s core.Set, ps uint64) float64 {
	if ps == 0 {
		return 0
	}
	total := float64(ps)
	var h float64
	for x := uint32(s); x != 0; x &= x - 1 {
		if w := st.p.Weights[bits.TrailingZeros32(x)]; w > 0 {
			q := float64(w) / total
			h -= q * math.Log2(q)
		}
	}
	return h
}
