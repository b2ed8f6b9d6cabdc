package approx

import (
	"repro/internal/core"
)

// memoCap caps each memo table (lower bounds here, the branch-and-bound's
// subproblems in bb.go); misses beyond it recompute or go unstored. The
// tables start small and double as they fill, so a search pays for the keys
// it stores, not for the cap.
const memoCap = 1 << 20

// state carries the per-instance precomputation shared by the greedy
// policies and the branch-and-bound: the compiled kernel, whose per-byte
// tables give every subset mass p(S) and treatment floor L(S) in at most
// four lookups, the global minimum action cost, and a table of memoized
// lower bounds keyed by set.
// The kernel's tables take 512 words per byte of K (12 KB at K = 24) —
// no 2^K tables — which is the point of the package.
type state struct {
	p      *core.Problem
	kn     *core.Kernel
	cmin   uint64                 // min cost over all actions
	treats []core.Set             // the treatments' sets, in action order
	lb     *core.SetTable[uint64] // lower-bound memo
}

// newState compiles p, which validates it.
func newState(p *core.Problem) (*state, error) {
	kn, err := core.Compile(p)
	if err != nil {
		return nil, err
	}
	st := &state{p: p, kn: kn, cmin: core.Inf, lb: core.NewSetTable[uint64](memoCap)}
	for _, a := range p.Actions {
		st.cmin = min(st.cmin, a.Cost)
		if a.Treatment {
			st.treats = append(st.treats, a.Set)
		}
	}
	return st, nil
}

// uncovered returns an object no treatment covers (the inadequacy witness),
// or -1 when the instance is adequate.
func (st *state) uncovered() int {
	for j := 0; j < st.p.K; j++ {
		if st.kn.Floor(core.SetOf(j)) == core.Inf {
			return j
		}
	}
	return -1
}

// lower is a valid lower bound on C(s): the maximum of
//
//   - the treatment floor L(s) = Σ_{j∈s} P_j·τ_j, τ_j the cheapest
//     treatment covering j — object j's run ends with a treatment covering
//     j, paid at a candidate set still containing j;
//   - the information bound cmin·p(s)·b, with b the largest integer such
//     that 2^b times the largest treated-part mass stays under p(s) — the
//     prefix-code argument spelled out at certify.LowerBound, which this
//     per-set form must agree with at the universe (pinned by tests).
//
// Both depend only on the instance and s — never on the incumbent in force
// when they were computed — so memoized values stay valid for every caller.
func (st *state) lower(s core.Set) uint64 {
	if s == 0 {
		return 0
	}
	if v, ok := st.lb.Get(uint64(s)); ok {
		return v
	}
	v := st.kn.Floor(s)
	ps := st.kn.Weight(s)
	if ps > 0 && st.cmin > 0 && st.cmin < core.Inf {
		var maxMass uint64
		for _, t := range st.treats {
			maxMass = max(maxMass, st.kn.Weight(t&s))
		}
		if maxMass > 0 {
			var b uint64
			for b < 64 && core.SatMul(maxMass, uint64(1)<<uint(b+1)) < ps {
				b++
			}
			if info := core.SatMul(st.cmin, core.SatMul(ps, b)); info > v {
				v = info
			}
		}
	}
	st.lb.Put(uint64(s), v)
	return v
}
