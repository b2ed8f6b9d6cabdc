package parttsolve

import (
	"math/bits"

	"repro/internal/certify"
	"repro/internal/core"
)

// This file is the engines' algorithm-based fault tolerance (ABFT) layer
// (docs/RESILIENCE.md, "Silent data corruption"). The simulated machine is
// several orders of magnitude slower than the host, so a host-side shadow of
// the DP — one sequential sweep's worth of arithmetic spread across the level
// barriers — is nearly free relative to the simulation it guards. At every
// barrier j the shadow knows the true (C, Choice) frontier, and the machine's
// entire architectural state is a function of it: the frozen groups must hold
// the mirror values, the #S = j group must hold the recurrence's level-j
// values, not-yet-active groups must still be at infinity, the mark plane
// must equal the #S = j predicate, and the PS/TP planes must match the host
// weights (the probability-conservation invariant p(S∩T)+p(S−T) = p(S) holds
// by construction for the host's sums, so any machine deviation is
// corruption). A violation triggers one localized repair — the machine is
// rebuilt from the trusted mirror — and a re-run of the damaged round; a second violation means the fault is
// persistent (a stuck PE bit, a broken route) and the solve refuses with a
// typed certify.LevelError instead of returning a wrong answer.

// abftCorruptHook, when non-nil (tests only), runs after every completed
// round with the live machine state, so tests can model transient and
// persistent silent corruption.
var abftCorruptHook func(round int, state []Cell)

// abft is the host-side trusted shadow of a verified parallel solve.
type abft struct {
	kn      *core.Kernel  // the real (unpadded) instance, compiled
	paddedA []core.Action // the padded table the machine runs
	c       []uint64      // trusted mirror of C, final for popcount <= level
	choice  []int32       // trusted mirror of Choice
	k       int
	logN    int
}

func newABFT(kn *core.Kernel, p *core.Problem, paddedA []core.Action, logN int) *abft {
	size := 1 << uint(p.K)
	a := &abft{
		kn:      kn,
		paddedA: paddedA,
		c:       make([]uint64, size),
		choice:  make([]int32, size),
		k:       p.K,
		logN:    logN,
	}
	for s := 1; s < size; s++ {
		a.c[s] = core.Inf
	}
	for s := range a.choice {
		a.choice[s] = -1
	}
	return a
}

// advance computes the true level-j values into the mirror with the kernel
// over the already-trusted lower levels — the host's half of the barrier
// handshake, run before the machine's round is inspected.
func (a *abft) advance(j int) {
	size := 1 << uint(a.k)
	v := uint32(1)<<uint(j) - 1
	for v < uint32(size) {
		a.c[v], a.choice[v] = a.kn.Cell(a.c, core.Set(v))
		c := v & -v
		r := v + c
		v = (r^v)>>2/c | r
	}
}

// verify checks the whole machine against the mirror at barrier j and
// reports every deviation (capped at 8 — one is already fatal).
func (a *abft) verify(state []Cell, j int) *certify.Report {
	r := &certify.Report{}
	iMask := 1<<uint(a.logN) - 1
	for addr := range state {
		cell := &state[addr]
		s := addr >> uint(a.logN)
		pc := bits.OnesCount(uint(s))
		i := addr & iMask
		set := core.Set(s)
		if cell.Mark != (pc == j) {
			r.Violations = append(r.Violations, certify.Violation{
				Kind: certify.BadStructure, Set: set, Action: i,
				Detail: "group mark off the #S=j wavefront"})
		}
		weight := a.kn.Weight(set)
		if cell.PS != weight {
			r.Violations = append(r.Violations, certify.Violation{
				Kind: certify.BadConservation, Set: set, Action: i, Got: cell.PS, Want: weight,
				Detail: "machine p(S) plane disagrees with the host weights"})
		}
		if wantTP := core.SatMul(a.paddedA[i].Cost, weight); cell.TP != wantTP {
			r.Violations = append(r.Violations, certify.Violation{
				Kind: certify.BadCell, Set: set, Action: i, Got: cell.TP, Want: wantTP,
				Detail: "machine t_i·p(S) plane disagrees with the host recomputation"})
		}
		if pc > j {
			if cell.M != core.Inf || cell.MI != -1 {
				r.Violations = append(r.Violations, certify.Violation{
					Kind: certify.BadCell, Set: set, Action: i, Got: cell.M, Want: core.Inf,
					Detail: "not-yet-active cell disturbed"})
			}
		} else if cell.M != a.c[s] {
			r.Violations = append(r.Violations, certify.Violation{
				Kind: certify.BadCell, Set: set, Action: i, Got: cell.M, Want: a.c[s],
				Detail: "cell disagrees with the trusted mirror"})
		} else if cell.MI != a.choice[s] {
			r.Violations = append(r.Violations, certify.Violation{
				Kind: certify.BadChoice, Set: set, Action: i,
				Got: uint64(cell.MI), Want: uint64(a.choice[s]),
				Detail: "argmin disagrees with the lowest-index minimizer"})
		}
		if len(r.Violations) >= 8 {
			return r
		}
	}
	return r
}
