// Package bvmtt runs the paper's test-and-treatment algorithm as an actual
// Boolean Vector Machine program: every step of the §6 ASCEND algorithm —
// processor-ID generation, streaming the problem in through the input chain,
// the p(S) subset sums, the TP = t_i·p(S) bit-serial multiplication, the
// group-mark propagation, the R/Q broadcast loops with their e ∈ S∩T_i /
// e ∈ S−T_i control bits, and the log N minimization — is emitted as BVM
// instructions (internal/bvm via internal/bvmalg) and executed on the
// simulated machine. This is the paper's §7 implementation scheme made
// concrete; results are cross-checked against the sequential DP in the test
// suite (experiment E13).
//
// Costs are Width-bit saturating integers with all-ones as infinity, exactly
// the bit-serial arithmetic a hardware BVM would run; choose Width with
// SuggestWidth so no finite cost saturates, and the program's outputs equal
// the uint64 DP's bit for bit.
package bvmtt

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/bitvec"
	"repro/internal/bvm"
	"repro/internal/bvmalg"
	"repro/internal/ccc"
	"repro/internal/certify"
	"repro/internal/core"
	"repro/internal/stripe"
)

// MaxDim caps the bit-level simulation at the 2048-PE machine (r = 3); the
// 2^20-PE machine the paper calls "currently implementable" would need hours
// of host time per run at bit level.
const MaxDim = 11

// Result is the output of a BVM TT run.
type Result struct {
	// Cost is C(U) with the word infinity mapped back to core.Inf.
	Cost uint64
	// C[s] is C(S) per subset, Inf-mapped like Cost.
	C []uint64
	// Instructions is the exact BVM instruction count of the whole program,
	// including input streaming.
	Instructions int64
	// LoadInstructions is the portion spent streaming the problem in.
	LoadInstructions int64
	// Phases breaks the instruction count down by program phase, in
	// execution order: processor-id, load, p(S), tp-multiply, rounds.
	Phases   []Phase
	PEs      int
	Width    int
	LogN     int
	MachineR int
	// Program is the recorded instruction stream of the whole run, set only
	// by SolveRecorded. Replaying it on a fresh machine of the same geometry
	// re-executes every instruction (external input bits consumed through
	// the I chain read as zeros on replay, so register contents differ, but
	// instruction and route counts are reproduced exactly — the property the
	// static cost checker in internal/bvmcheck relies on).
	Program *bvm.Program
	// Repairs counts ABFT round repairs: barriers where verification failed,
	// the machine was rebuilt from the trusted mirror by host pokes, and the
	// round re-ran successfully. Always 0 unless Options.Verify is set.
	Repairs int
}

// Phase is one section of the TT program's instruction budget.
type Phase struct {
	Name         string
	Instructions int64
}

// SuggestWidth returns a word width sufficient for every finite C(S): the
// sequence "apply every treatment" is a valid procedure for any candidate
// set, so (Σ treatment costs)·p(U) bounds all finite DP values.
func SuggestWidth(p *core.Problem) int {
	var tsum uint64
	for _, a := range p.Actions {
		if a.Treatment {
			tsum = core.SatAdd(tsum, a.Cost)
		}
	}
	bound := core.SatMul(tsum, p.TotalWeight())
	w := 1
	for ; w < 60 && 1<<uint(w)-1 <= bound; w++ {
	}
	return w + 1
}

type layout struct {
	addr        int // q regs: processor-ID
	tmem        int // k regs: e ∈ T_i
	istreat     int
	padded      int
	mark, rcv   int
	cond, cond2 int
	cost        bvmalg.Word
	ps          bvmalg.Word
	m, tp, r, q bvmalg.Word
	sh1, sh2    bvmalg.Word
	tmp1, tmp2  bvmalg.Word
	scratch     int // FetchPartner / MulSatWord scratch: 2W+2 regs
}

func planLayout(q, k, w int) (layout, error) {
	next := 0
	alloc := func(n int) int {
		base := next
		next += n
		return base
	}
	word := func() bvmalg.Word { return bvmalg.Word{Base: alloc(w), Width: w} }
	lay := layout{
		addr:    alloc(q),
		tmem:    alloc(k),
		istreat: alloc(1),
		padded:  alloc(1),
		mark:    alloc(1),
		rcv:     alloc(1),
		cond:    alloc(1),
		cond2:   alloc(1),
		cost:    word(),
		ps:      word(),
	}
	lay.m, lay.tp, lay.r, lay.q = word(), word(), word(), word()
	lay.sh1, lay.sh2 = word(), word()
	lay.tmp1, lay.tmp2 = word(), word()
	lay.scratch = alloc(2*w + 2)
	if next > bvm.DefaultRegisters {
		return lay, fmt.Errorf("bvmtt: layout needs %d registers, machine has %d (reduce width %d)",
			next, bvm.DefaultRegisters, w)
	}
	return lay, nil
}

// Options bundles the optional plumbing of a BVM solve.
type Options struct {
	// Width is the cost word width in bits; 0 means SuggestWidth(p).
	Width int
	// Record captures the executed instruction stream into Result.Program.
	Record bool
	// Frontier resumes from a restored level frontier (cost-only suffices).
	Frontier *core.Frontier
	// Checkpointer fires after every completed round j < K.
	Checkpointer core.Checkpointer
	// Verify enables the ABFT layer (abft.go): running checksums over the
	// frozen M word plane plus direct host verification of the new level,
	// the mark register, and the PS/TP planes at every round barrier, with
	// one poke-repair-and-re-run before refusing with a certify.LevelError.
	// With a healthy machine the result is bit-identical to an unverified
	// run (Repairs = 0).
	Verify bool
	// Stripe, when non-nil, shards the machine's word-plane execution across
	// the pool (bvm.Machine.SetStriped). Striping is gated on the machine
	// being at least StripeMinWords words wide, so small geometries run the
	// scalar kernels unchanged; results are bit-identical either way, and the
	// ABFT verify/repair layer observes identical state at every barrier.
	Stripe *stripe.Pool
	// StripeMinWords overrides the striping threshold (0 means
	// bvm.DefaultStripeMinWords). Tests use 1 to force the pool path on the
	// small machines MaxDim admits.
	StripeMinWords int
}

// Solve runs the TT program on the smallest BVM that fits the instance.
// width 0 means SuggestWidth(p).
func Solve(p *core.Problem, width int) (*Result, error) {
	return solve(context.Background(), p, Options{Width: width})
}

// SolveOpts runs the TT program with the full option set.
func SolveOpts(ctx context.Context, p *core.Problem, opt Options) (*Result, error) {
	return solve(ctx, p, opt)
}

// SolveCtx is Solve with cancellation: the context is polled between the
// program's phases and at every round j = 1..k of the main loop, so a
// deadline stops a long bit-level simulation between rounds instead of
// after the whole program has run.
func SolveCtx(ctx context.Context, p *core.Problem, width int) (*Result, error) {
	return solve(ctx, p, Options{Width: width})
}

// SolveCheckpointedCtx is SolveCtx with durable-solve plumbing. A non-nil
// frontier skips rounds 1..f.Level by host-poking the state those rounds
// would have left on the machine — the M plane of every completed group and
// the #S = f.Level mark register; the program phases before the main loop
// (load, p(S), TP) re-execute as BVM instructions and are deterministic. A
// cost-only frontier suffices: the BVM program tracks no argmins. A non-nil
// ck fires after every round j < k with the cost plane read off the machine.
// Costs are bit-identical to an uninterrupted run;
// instruction counts reflect only the rounds actually executed.
func SolveCheckpointedCtx(ctx context.Context, p *core.Problem, width int, f *core.Frontier, ck core.Checkpointer) (*Result, error) {
	return solve(ctx, p, Options{Width: width, Frontier: f, Checkpointer: ck})
}

// SolveRecorded is Solve with instruction capture: Result.Program holds the
// complete recorded program, ready for static analysis (bvmcheck) or replay.
func SolveRecorded(p *core.Problem, width int) (*Result, error) {
	return solve(context.Background(), p, Options{Width: width, Record: true})
}

// SolveRecordedCtx is SolveRecorded with the cancellation behaviour of
// SolveCtx.
func SolveRecordedCtx(ctx context.Context, p *core.Problem, width int) (*Result, error) {
	return solve(ctx, p, Options{Width: width, Record: true})
}

func solve(ctx context.Context, p *core.Problem, opt Options) (*Result, error) {
	width, record, f, ck := opt.Width, opt.Record, opt.Frontier, opt.Checkpointer
	kn, err := core.Compile(p)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if width == 0 {
		width = SuggestWidth(p)
	}
	if width < 2 || width > 32 {
		return nil, fmt.Errorf("bvmtt: width %d outside [2,32]", width)
	}
	k := p.K
	if f != nil {
		if err := f.Validate(k); err != nil {
			return nil, err
		}
	}
	minLogN := 1
	for 1<<uint(minLogN) < len(p.Actions) {
		minLogN++
	}
	minDim := k + minLogN
	if minDim > MaxDim {
		return nil, fmt.Errorf("bvmtt: instance needs 2^%d PEs, bit-level cap is 2^%d", minDim, MaxDim)
	}
	top, err := ccc.ForPEs(1 << uint(minDim))
	if err != nil {
		return nil, err
	}
	q := top.AddrBits
	logN := q - k
	if logN < 1 {
		return nil, fmt.Errorf("bvmtt: universe of %d objects leaves no action bits on a %d-PE machine", k, top.N)
	}
	lay, err := planLayout(q, k, width)
	if err != nil {
		return nil, err
	}
	m, err := bvm.New(top.R, bvm.DefaultRegisters)
	if err != nil {
		return nil, err
	}
	if opt.Stripe != nil {
		m.SetStriped(opt.Stripe, opt.StripeMinWords)
	}
	if machineHook != nil {
		machineHook(m)
	}
	if record {
		m.StartRecording(fmt.Sprintf("tt-k%d-n%d-w%d", k, len(p.Actions), width))
	}

	// Pad the action table to 2^logN with dummy entries (paper §6: infinite-
	// cost treatments T = U).
	actions := append([]core.Action(nil), p.Actions...)
	nReal := len(actions)
	for len(actions) < 1<<uint(logN) {
		actions = append(actions, core.Action{Set: core.Universe(k), Treatment: true})
	}

	inf := bvmalg.Word{Width: width}.MaxValue()
	for _, a := range p.Actions {
		if a.Cost >= inf {
			return nil, fmt.Errorf("bvmtt: action cost %d saturates %d-bit words", a.Cost, width)
		}
	}

	// --- program ---
	phaseStart := m.InstrCount
	var phases []Phase
	endPhase := func(name string) {
		phases = append(phases, Phase{Name: name, Instructions: m.InstrCount - phaseStart})
		phaseStart = m.InstrCount
	}

	bvmalg.ProcessorID(m, lay.addr)
	endPhase("processor-id")

	loadStart := m.InstrCount
	streamPlane(m, bvm.R(lay.istreat), func(i int) uint64 { return b2u(actions[i].Treatment) }, logN)
	streamPlane(m, bvm.R(lay.padded), func(i int) uint64 { return b2u(i >= nReal) }, logN)
	for e := 0; e < k; e++ {
		e := e
		streamPlane(m, bvm.R(lay.tmem+e), func(i int) uint64 { return b2u(actions[i].Set.Has(e)) }, logN)
	}
	for b := 0; b < width; b++ {
		b := b
		streamPlane(m, lay.cost.Bit(b), func(i int) uint64 { return actions[i].Cost >> uint(b) & 1 }, logN)
	}
	load := m.InstrCount - loadStart
	endPhase("load")
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// p(S): ASCEND over the S-dimensions accumulating per-element weights.
	bvmalg.SetWordConst(m, lay.ps, 0)
	for e := 0; e < k; e++ {
		bvmalg.FetchPartner(m, logN+e, bvmalg.WordPairs(lay.ps, lay.sh1), lay.scratch)
		bvmalg.SetWordConst(m, lay.tmp2, p.Weights[e])
		bvmalg.AddSatWord(m, lay.tmp1, lay.sh1, lay.tmp2)
		bvmalg.CondCopyWord(m, lay.ps, lay.tmp1, bvm.R(lay.addr+logN+e))
	}

	endPhase("p(S)")

	// TP = t_i · p(S).
	bvmalg.MulSatWord(m, lay.tp, lay.cost, lay.ps, lay.scratch)
	endPhase("tp-multiply")

	// M = INF except M[∅,i] = 0; the ∅ group carries the initial mark.
	bvmalg.SetWordConst(m, lay.m, inf)
	m.SetConst(bvm.R(lay.cond), false)
	for b := logN; b < q; b++ {
		m.Or(bvm.R(lay.cond), bvm.R(lay.cond), bvm.Loc(bvm.R(lay.addr+b)))
	}
	m.Not(bvm.R(lay.mark), bvm.R(lay.cond)) // mark = (S == ∅)
	for b := 0; b < width; b++ {
		m.And(lay.m.Bit(b), lay.m.Bit(b), bvm.Loc(bvm.R(lay.cond))) // clear where S == ∅
	}

	markPair := []bvmalg.Pair{{Src: bvm.R(lay.mark), Shadow: bvm.R(lay.cond2)}}
	rqPairs := append(bvmalg.WordPairs(lay.r, lay.sh1), bvmalg.WordPairs(lay.q, lay.sh2)...)

	startRound := 1
	if f != nil {
		// Restore the machine to its state after round f.Level. The min-reduce
		// of step (5) is an all-reduce over the action dimensions, so every PE
		// of a completed group holds C(S): poke it into the whole group, with
		// core.Inf mapped to the word infinity. The mark register becomes the
		// #S = f.Level predicate the next first-kind propagation starts from.
		mark := bitvec.New(m.N())
		for pe := 0; pe < m.N(); pe++ {
			s := pe >> uint(logN)
			pc := bits.OnesCount(uint(s))
			mark.Set(pe, pc == f.Level)
			if pc > f.Level {
				continue
			}
			w := f.C[s]
			if w == core.Inf {
				w = inf
			} else if w >= inf {
				return nil, fmt.Errorf("bvmtt: checkpointed cost %d saturates %d-bit words", w, width)
			}
			m.SetUint(lay.m.Base, width, pe, w)
		}
		m.Poke(bvm.R(lay.mark), mark)
		startRound = f.Level + 1
	}

	var ab *abft
	if opt.Verify {
		ab = newABFT(kn, p, actions, logN, width, inf)
		if f != nil {
			ab.seed(f)
		}
	}

	// runRound executes one complete round j (steps 1–5). It is re-runnable:
	// everything it reads — the frozen M plane, the mark register, PS, TP and
	// the streamed problem planes — is exactly what the ABFT repair rebuilds.
	runRound := func(j int) {
		// (1) Propagate the group mark one level up (first-kind propagation).
		m.SetConst(bvm.R(lay.rcv), false)
		for e := 0; e < k; e++ {
			bvmalg.FetchPartner(m, logN+e, markPair, lay.scratch)
			m.And(bvm.R(lay.cond), bvm.R(lay.cond2), bvm.Loc(bvm.R(lay.addr+logN+e)))
			m.Or(bvm.R(lay.rcv), bvm.R(lay.rcv), bvm.Loc(bvm.R(lay.cond)))
		}
		m.Mov(bvm.R(lay.mark), bvm.Loc(bvm.R(lay.rcv)))

		// (2) R = Q = M.
		bvmalg.CopyWord(m, lay.r, lay.m)
		bvmalg.CopyWord(m, lay.q, lay.m)

		// (3) The e-loop: R[S,i] = R[S−{e},i] where e ∈ S∩T_i and
		// Q[S,i] = Q[S−{e},i] where e ∈ S−T_i.
		for e := 0; e < k; e++ {
			bvmalg.FetchPartner(m, logN+e, rqPairs, lay.scratch)
			m.And(bvm.R(lay.cond), bvm.R(lay.addr+logN+e), bvm.Loc(bvm.R(lay.tmem+e)))
			bvmalg.CondCopyWord(m, lay.r, lay.sh1, bvm.R(lay.cond))
			m.AndNot(bvm.R(lay.cond), bvm.R(lay.addr+logN+e), bvm.Loc(bvm.R(lay.tmem+e)))
			bvmalg.CondCopyWord(m, lay.q, lay.sh2, bvm.R(lay.cond))
		}

		// (4) Combine on the active group: tests add R and Q, treatments
		// only R; dummy padded actions are forced to infinity.
		bvmalg.AddSatWord(m, lay.tmp1, lay.tp, lay.r)
		bvmalg.AddSatWord(m, lay.tmp2, lay.tmp1, lay.q)
		m.MovB(bvm.Loc(bvm.R(lay.istreat)))
		for b := 0; b < width; b++ {
			m.MuxB(lay.tmp2.Bit(b), lay.tmp2.Bit(b), bvm.Loc(lay.tmp1.Bit(b)))
		}
		forceInf := bvm.TT(func(f, d, b bool) bool { return f || d })
		m.And(bvm.R(lay.cond), bvm.R(lay.mark), bvm.Loc(bvm.R(lay.padded)))
		for b := 0; b < width; b++ {
			m.Exec(bvm.Instr{Dst: lay.tmp2.Bit(b), FTT: forceInf, GTT: bvm.TTB,
				F: lay.tmp2.Bit(b), D: bvm.Loc(bvm.R(lay.cond))})
		}
		bvmalg.CondCopyWord(m, lay.m, lay.tmp2, bvm.R(lay.mark))

		// (5) Minimization over the action-index dimensions.
		bvmalg.MinReduce(m, lay.m, 0, logN, lay.sh1, lay.scratch)
		if abftCorruptHook != nil {
			abftCorruptHook(j, m)
		}
	}

	var repairs int
	for j := startRound; j <= k; j++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if ab != nil {
			ab.advance(j)
		}
		runRound(j)
		if ab != nil {
			// The M plane is checksummed here; the lint pass in bvmcheck
			// warns if instructions ever slide between this mark and the
			// barrier mark below (a write would stale the checksum).
			m.MarkRecording(bvm.MarkABFTChecksum, wordRegs(lay.m)...)
			if rep := ab.verify(m, lay, j); !rep.OK() {
				ab.repair(m, lay, q, j)
				runRound(j)
				m.MarkRecording(bvm.MarkABFTChecksum, wordRegs(lay.m)...)
				if rep = ab.verify(m, lay, j); !rep.OK() {
					return nil, &certify.LevelError{Engine: "bvm", Level: j, Report: rep}
				}
				repairs++
			}
			m.MarkRecording(bvm.MarkABFTBarrier, wordRegs(lay.m)...)
		}
		if ck != nil && j < k {
			sol := &core.Solution{C: readCostPlane(m, lay, width, k, logN, inf)}
			if err := ck.CheckpointLevel(j, sol); err != nil {
				return nil, fmt.Errorf("bvmtt: checkpoint at level %d: %w", j, err)
			}
		}
	}

	endPhase("rounds")

	res := &Result{
		Phases:           phases,
		Program:          stopRecording(m, record),
		Instructions:     m.InstrCount,
		LoadInstructions: load,
		PEs:              top.N,
		Width:            width,
		LogN:             logN,
		MachineR:         top.R,
		C:                readCostPlane(m, lay, width, k, logN, inf),
		Repairs:          repairs,
	}
	res.Cost = res.C[len(res.C)-1]
	return res, nil
}

// readCostPlane reads C(S) for every subset off the machine's M plane (PE
// (S, 0) representative), mapping the word infinity back to core.Inf.
func readCostPlane(m *bvm.Machine, lay layout, width, k, logN int, inf uint64) []uint64 {
	c := make([]uint64, 1<<uint(k))
	for s := range c {
		v := m.Uint(lay.m.Base, width, s<<uint(logN))
		if v == inf {
			v = core.Inf
		}
		c[s] = v
	}
	return c
}

// stopRecording ends capture when it was started, else returns nil.
func stopRecording(m *bvm.Machine, record bool) *bvm.Program {
	if !record {
		return nil
	}
	return m.StopRecording()
}

// streamPlane loads a register plane whose bit at PE (S, i) depends only on
// the action index i, through the input chain (n instructions).
func streamPlane(m *bvm.Machine, dst bvm.RegRef, bit func(i int) uint64, logN int) {
	pattern := bitvec.New(m.N())
	iMask := 1<<uint(logN) - 1
	for pe := 0; pe < m.N(); pe++ {
		pattern.Set(pe, bit(pe&iMask) == 1)
	}
	m.LoadViaInput(dst, pattern)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
