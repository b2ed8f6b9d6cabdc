package bvmtt

import (
	"math/bits"

	"repro/internal/bitvec"
	"repro/internal/bvm"
	"repro/internal/bvmalg"
	"repro/internal/certify"
	"repro/internal/core"
)

// This file is the BVM engine's algorithm-based fault tolerance layer
// (docs/RESILIENCE.md, "Silent data corruption"). The bit-level simulation is
// ~three orders of magnitude slower than host arithmetic, so a host-side
// shadow DP — one sequential sweep amortized over the level barriers — costs
// almost nothing next to the program it guards. At every barrier the layer
// keeps a running FNV checksum of the frozen region of the machine's M word
// plane and compares it to the checksum of the trusted host mirror; the new
// level, the still-at-infinity future region, the mark register, and the
// PS/TP planes are verified directly against host recomputation (the
// probability-conservation identity p(S∩T)+p(S−T) = p(S) holds exactly for
// the host's sums, so any machine PS deviation is corruption). Word
// saturation is handled by clamping: every machine word must equal the
// host's uint64 value clamped to the all-ones word infinity — min and
// saturating +/× all commute with that monotone clamp, so the comparison is
// exact, not approximate.
//
// On a violation the machine is rebuilt by host pokes from the mirror — the
// frontier-restore machinery extended to every recomputable plane, including
// the streamed-in problem planes — and the round re-runs once. A fault that
// re-asserts itself (a stuck PE bit is re-forced after every instruction, a
// broken lateral zeroes every route through it) fails the second check and
// the solve refuses with a certify.LevelError rather than return a wrong
// answer.

// machineHook, when non-nil, runs on every machine bvmtt builds, before any
// instruction executes. ttserve's -chaos-bvm-fault flag and the chaos tests
// use it to inject the fault kernels of internal/bvm/fault.go into real
// solves.
var machineHook func(*bvm.Machine)

// SetMachineHook installs (or, with nil, clears) the machine hook and
// returns a restore func. Install before serving traffic; the hook is read
// by every solve without synchronization.
func SetMachineHook(h func(*bvm.Machine)) (restore func()) {
	prev := machineHook
	machineHook = h
	return func() { machineHook = prev }
}

// abftCorruptHook, when non-nil (tests only), runs after every completed
// round with the live machine, so tests can model transient host-visible
// corruption as well as the persistent fault kernels.
var abftCorruptHook func(round int, m *bvm.Machine)

// abft is the host-side trusted shadow of a verified BVM solve.
type abft struct {
	kn      *core.Kernel  // the real (unpadded) instance, compiled
	paddedA []core.Action // the padded table streamed into the machine
	c       []uint64      // trusted mirror of C, core.Inf semantics
	k, logN int
	width   int
	inf     uint64 // the width-bit all-ones infinity
	nReal   int
}

func newABFT(kn *core.Kernel, p *core.Problem, paddedA []core.Action, logN, width int, inf uint64) *abft {
	size := 1 << uint(p.K)
	a := &abft{
		kn:      kn,
		paddedA: paddedA,
		c:       make([]uint64, size),
		k:       p.K,
		logN:    logN,
		width:   width,
		inf:     inf,
		nReal:   len(p.Actions),
	}
	for s := 1; s < size; s++ {
		a.c[s] = core.Inf
	}
	return a
}

// clamp maps a host uint64 cost onto the machine's word range: the machine's
// saturating width-bit arithmetic computes exactly the clamp of the true
// value (the clamp is monotone, so it commutes with min, + and ×).
func (a *abft) clamp(v uint64) uint64 {
	if v >= a.inf {
		return a.inf
	}
	return v
}

// seed absorbs a restored frontier into the mirror (checkpoint.Decode has
// already re-derived every entry from the recurrence).
func (a *abft) seed(f *core.Frontier) {
	for s := range a.c {
		if bits.OnesCount(uint(s)) <= f.Level {
			a.c[s] = f.C[s]
		}
	}
}

// advance computes the true level-j values into the mirror with the kernel
// over the already-trusted lower levels, in host arithmetic.
func (a *abft) advance(j int) {
	size := 1 << uint(a.k)
	v := uint32(1)<<uint(j) - 1
	for v < uint32(size) {
		a.c[v], _ = a.kn.Cell(a.c, core.Set(v))
		c := v & -v
		r := v + c
		v = (r^v)>>2/c | r
	}
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnv(h, v uint64) uint64 {
	for b := 0; b < 8; b++ {
		h = (h ^ (v >> uint(8*b) & 0xff)) * fnvPrime
	}
	return h
}

// frozenChecksums returns the running checksums of the frozen region
// (popcount < j) of the machine's M plane and of the host mirror, in PE
// order. Equal sums mean the frozen prefix is intact without comparing it
// cell by cell; verify falls back to localization only on mismatch.
func (a *abft) frozenChecksums(m *bvm.Machine, lay layout, j int) (machine, host uint64) {
	machine, host = fnvOffset, fnvOffset
	for pe := 0; pe < m.N(); pe++ {
		s := pe >> uint(a.logN)
		if bits.OnesCount(uint(s)) >= j {
			continue
		}
		machine = fnv(machine, m.Uint(lay.m.Base, a.width, pe))
		host = fnv(host, a.clamp(a.c[s]))
	}
	return machine, host
}

// verify checks the machine against the mirror at barrier j: the frozen
// M-plane region by running checksum (localized on mismatch), the new level
// and future region directly, the mark register against the #S = j
// predicate, and the PS/TP planes against the host weights. Violations are
// capped at 8 — one is already fatal.
func (a *abft) verify(m *bvm.Machine, lay layout, j int) *certify.Report {
	r := &certify.Report{}
	msum, hsum := a.frozenChecksums(m, lay, j)
	checkFrozen := msum != hsum
	mark := m.Peek(bvm.R(lay.mark))
	iMask := 1<<uint(a.logN) - 1
	for pe := 0; pe < m.N() && len(r.Violations) < 8; pe++ {
		s := pe >> uint(a.logN)
		i := pe & iMask
		pc := bits.OnesCount(uint(s))
		set := core.Set(s)
		if mark.Get(pe) != (pc == j) {
			r.Violations = append(r.Violations, certify.Violation{
				Kind: certify.BadStructure, Set: set, Action: i,
				Detail: "mark register off the #S=j wavefront"})
		}
		weight := a.kn.Weight(set)
		if ps := m.Uint(lay.ps.Base, a.width, pe); ps != a.clamp(weight) {
			r.Violations = append(r.Violations, certify.Violation{
				Kind: certify.BadConservation, Set: set, Action: i, Got: ps, Want: a.clamp(weight),
				Detail: "machine p(S) plane disagrees with the host weights"})
		}
		wantTP := a.clamp(core.SatMul(a.paddedA[i].Cost, weight))
		if tp := m.Uint(lay.tp.Base, a.width, pe); tp != wantTP {
			r.Violations = append(r.Violations, certify.Violation{
				Kind: certify.BadCell, Set: set, Action: i, Got: tp, Want: wantTP,
				Detail: "machine t_i·p(S) plane disagrees with the host recomputation"})
		}
		switch {
		case pc > j:
			if v := m.Uint(lay.m.Base, a.width, pe); v != a.inf {
				r.Violations = append(r.Violations, certify.Violation{
					Kind: certify.BadCell, Set: set, Action: i, Got: v, Want: a.inf,
					Detail: "not-yet-active cell disturbed"})
			}
		case pc == j || checkFrozen:
			if v := m.Uint(lay.m.Base, a.width, pe); v != a.clamp(a.c[s]) {
				detail := "cell disagrees with the host recurrence"
				if pc < j {
					detail = "frozen cell disagrees with the checksummed mirror"
				}
				r.Violations = append(r.Violations, certify.Violation{
					Kind: certify.BadCell, Set: set, Action: i, Got: v, Want: a.clamp(a.c[s]),
					Detail: detail})
			}
		}
	}
	if checkFrozen && r.OK() {
		// The checksums disagreed but no cell did: the checksum itself was
		// computed from a state that changed under us — report it rather
		// than certify a machine we could not pin down.
		r.Violations = append(r.Violations, certify.Violation{
			Kind: certify.BadCell, Action: -1, Got: msum, Want: hsum,
			Detail: "frozen M-plane checksum mismatch without a localizable cell"})
	}
	return r
}

// repair rebuilds every recomputable machine plane from the trusted mirror
// as if round j-1 had just completed: the M plane and mark register (the
// frontier-restore poke), the PS/TP planes, and the streamed-in problem
// planes (processor IDs, T_i membership, kind/padding flags, costs). Only
// state a re-run recomputes anyway (R, Q, scratch, E) is left alone. Host
// pokes execute no instructions, so a stuck bit — re-forced after every
// instruction — survives repair and is caught by the re-verify.
func (a *abft) repair(m *bvm.Machine, lay layout, q, j int) {
	n := m.N()
	iMask := 1<<uint(a.logN) - 1
	mark := bitvec.New(n)
	for pe := 0; pe < n; pe++ {
		s := pe >> uint(a.logN)
		i := pe & iMask
		pc := bits.OnesCount(uint(s))
		mark.Set(pe, pc == j-1)
		w := a.inf
		if pc <= j-1 {
			w = a.clamp(a.c[s])
		}
		m.SetUint(lay.m.Base, a.width, pe, w)
		weight := a.kn.Weight(core.Set(s))
		m.SetUint(lay.ps.Base, a.width, pe, a.clamp(weight))
		m.SetUint(lay.tp.Base, a.width, pe, a.clamp(core.SatMul(a.paddedA[i].Cost, weight)))
		m.SetUint(lay.cost.Base, a.width, pe, a.paddedA[i].Cost)
	}
	m.Poke(bvm.R(lay.mark), mark)
	m.Poke(bvm.R(lay.rcv), bitvec.New(n))
	pokePlane := func(reg int, bit func(pe int) bool) {
		v := bitvec.New(n)
		for pe := 0; pe < n; pe++ {
			v.Set(pe, bit(pe))
		}
		m.Poke(bvm.R(reg), v)
	}
	for b := 0; b < q; b++ {
		b := b
		pokePlane(lay.addr+b, func(pe int) bool { return pe>>uint(b)&1 == 1 })
	}
	for e := 0; e < a.k; e++ {
		e := e
		pokePlane(lay.tmem+e, func(pe int) bool { return a.paddedA[pe&iMask].Set.Has(e) })
	}
	pokePlane(lay.istreat, func(pe int) bool { return a.paddedA[pe&iMask].Treatment })
	pokePlane(lay.padded, func(pe int) bool { return pe&iMask >= a.nReal })
}

// wordRegs lists a word's register indices for mark annotations.
func wordRegs(w bvmalg.Word) []int {
	regs := make([]int, w.Width)
	for b := range regs {
		regs[b] = w.Base + b
	}
	return regs
}
