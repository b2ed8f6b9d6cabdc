// Package parttsolve implements the paper's parallel test-and-treatment
// algorithm (§5–§7) in its ASCEND form, at word level.
//
// One PE is assigned to every (S, i) pair — S a subset of the universe, i an
// action index — with PE address S·2^logN + i, exactly the paper's §7 layout
// (the S bits are the high-order address bits, the action index the low
// ones). The number of actions is padded to a power of two with treatments
// T = U of infinite cost, as §6 prescribes. Each round j = 1..k then runs:
//
//  1. a propagation of the first kind advancing the active-group mark from
//     the (j-1)-PE group to the j-PE group (the paper's §7 solution to the
//     PE-allocation problem: no PE ever computes its popcount);
//  2. R[S,i] = Q[S,i] = M[S,i] locally;
//  3. one ASCEND pass over the S-dimensions carrying both broadcast loops:
//     R[S,i] = R[S−{e},i] where e ∈ S∩T_i and Q[S,i] = Q[S−{e},i] where
//     e ∈ S−T_i, which leaves R[S,i] = M[S−T_i,i] and Q[S,i] = M[S∩T_i,i]
//     (§6's correctness argument);
//  4. M = TP + R (+ Q for tests) on the active group;
//  5. the ASCEND minimization over the action-index dimensions, after which
//     every PE of an active S holds C(S).
//
// All cost arithmetic is the saturating uint64 arithmetic of internal/core,
// so results are bit-identical to the sequential DP.
//
// The algorithm runs on three interchangeable engines: the lockstep
// hypercube machine (internal/hypercube), a goroutine-per-PE hypercube where
// the PEs genuinely run concurrently, and the cube-connected-cycles
// simulator (internal/cccsim), which executes the same ASCEND passes on a
// 3-link-per-PE machine and exposes the paper's slowdown-4-to-6 step counts.
package parttsolve

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/ccc"
	"repro/internal/cccsim"
	"repro/internal/certify"
	"repro/internal/core"
	"repro/internal/hypercube"
)

// debugChecks enables per-round invariant verification (set by tests).
var debugChecks = false

// Cell is the per-PE state: the paper's M, TP, R and Q arrays plus the
// subset weight p(S) and the group-propagation control bits.
type Cell struct {
	M, TP, R, Q uint64
	PS          uint64 // p(S)
	MI          int32  // action index achieving M (argmin, lowest index on ties)
	Mark        bool   // member of the currently active #S = j group
	Rcv         bool   // receiver scratch for the group propagation
}

// Engine is the execution substrate: both hypercube.Machine[Cell] and
// cccsim.Simulator[Cell] satisfy it, and goroutineEngine adapts the
// goroutine executor.
type Engine interface {
	State() []Cell
	AscendRange(lo, hi int, op hypercube.Op[Cell])
}

// EngineKind selects the execution substrate.
type EngineKind int

const (
	// Lockstep runs on the deterministic word-level hypercube machine.
	Lockstep EngineKind = iota
	// Goroutine runs one goroutine per PE with channel exchanges.
	Goroutine
	// CCC runs on the cube-connected-cycles simulator; the PE count is
	// padded up to the nearest legal CCC size (Q·2^Q) with extra dummy
	// actions.
	CCC
)

func (k EngineKind) String() string {
	switch k {
	case Lockstep:
		return "lockstep"
	case Goroutine:
		return "goroutine"
	case CCC:
		return "ccc"
	}
	return fmt.Sprintf("EngineKind(%d)", int(k))
}

// Result reports the parallel solution and its cost accounting.
type Result struct {
	// Cost is C(U); Inf for inadequate instances.
	Cost uint64
	// C[s] is C(S) for every subset, extracted from the M plane.
	C []uint64
	// Choice[s] is the action index achieving C[s] (lowest on ties), or -1
	// where C[s] is infinite or s is empty — extracted from the machine, so
	// procedure trees can be built from the parallel run alone.
	Choice []int32
	// PEs is the machine size 2^DimBits = 2^k · N' (N' = padded action count).
	PEs     int
	DimBits int
	LogN    int // bits of the padded action index
	// DimSteps counts hypercube dimension steps (the paper's parallel time
	// unit at word level); LocalSteps counts whole-machine local updates.
	DimSteps   int
	LocalSteps int
	// CCCSteps is the CCC instruction count (rotations + combines) when the
	// engine is CCC; 0 otherwise.
	CCCSteps int
	Engine   EngineKind
	// Repairs counts ABFT round repairs: barriers where verification failed,
	// the machine was rebuilt from the trusted mirror, and the round re-ran
	// successfully. Always 0 unless Options.Verify is set.
	Repairs int
}

// Steps returns total parallel word-level steps (dimension + local).
func (r *Result) Steps() int { return r.DimSteps + r.LocalSteps }

// Solve runs the parallel algorithm. The instance must validate (same rules
// as core.Solve).
func Solve(p *core.Problem, kind EngineKind) (*Result, error) {
	return SolveCtx(context.Background(), p, kind)
}

// SolveCtx is Solve with cancellation: the context is polled before the
// machine is built and at every round barrier j = 1..k (each round is one
// full set of ASCEND passes, the natural preemption point of the simulated
// machine), so deadlines stop a long simulation between rounds.
func SolveCtx(ctx context.Context, p *core.Problem, kind EngineKind) (*Result, error) {
	return SolveCheckpointedCtx(ctx, p, kind, nil, nil)
}

// Options bundles the optional plumbing of a parallel solve.
type Options struct {
	// Frontier resumes from a restored level frontier.
	Frontier *core.Frontier
	// Checkpointer fires after every completed round j < K.
	Checkpointer core.Checkpointer
	// Verify enables the ABFT layer (abft.go): a host-side shadow DP checks
	// the machine's full architectural state at every round barrier, repairs
	// one transient corruption per round by rebuilding the machine from the
	// trusted mirror, and refuses with a certify.LevelError when a fault
	// persists through the repair. With a healthy machine the result is
	// bit-identical to an unverified run (Repairs = 0).
	Verify bool
}

// SolveCheckpointedCtx is SolveCtx with durable-solve plumbing. A non-nil
// frontier skips rounds 1..f.Level by restoring the machine state those
// rounds would have produced — the M and MI planes for every completed group
// (MI recomputed from the frontier's C with core.Kernel) and the #S = f.Level
// group mark; everything else (p(S), TP, the R/Q scratch) is recomputed, so
// the restored machine is indistinguishable from one that ran the skipped
// rounds. A non-nil ck fires after every round j < k with the C plane
// extracted from the machine. Results are bit-identical to an uninterrupted
// run.
func SolveCheckpointedCtx(ctx context.Context, p *core.Problem, kind EngineKind, f *core.Frontier, ck core.Checkpointer) (*Result, error) {
	return SolveOpts(ctx, p, kind, Options{Frontier: f, Checkpointer: ck})
}

// SolveOpts runs the parallel algorithm with the full option set.
func SolveOpts(ctx context.Context, p *core.Problem, kind EngineKind, opt Options) (*Result, error) {
	f, ck := opt.Frontier, opt.Checkpointer
	kn, err := core.Compile(p)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	k := p.K
	if f != nil {
		if err := f.Validate(k); err != nil {
			return nil, err
		}
	}
	logN := 1
	for 1<<uint(logN) < len(p.Actions) {
		logN++
	}
	dim := k + logN
	if kind == CCC {
		// Pad to a legal CCC machine size by widening the action index.
		top, err := ccc.ForPEs(1 << uint(dim))
		if err != nil {
			return nil, fmt.Errorf("parttsolve: instance needs %d PEs: %w", 1<<uint(dim), err)
		}
		logN = top.AddrBits - k
		if logN < 1 {
			return nil, fmt.Errorf("parttsolve: universe of %d objects cannot fit CCC machine of %d PEs", k, top.N)
		}
		dim = top.AddrBits
	}
	if dim > 26 {
		return nil, fmt.Errorf("parttsolve: machine of 2^%d PEs too large to simulate", dim)
	}

	// Pad the action list with infinite-cost treatments T = U (paper §6).
	actions := append([]core.Action(nil), p.Actions...)
	for len(actions) < 1<<uint(logN) {
		actions = append(actions, core.Action{Set: core.Universe(k), Cost: 0, Treatment: true})
	}
	padded := make([]bool, len(actions))
	for i := len(p.Actions); i < len(actions); i++ {
		padded[i] = true
	}

	var eng Engine
	var cccEng *cccsim.Simulator[Cell]
	switch kind {
	case Lockstep:
		eng = hypercube.New[Cell](dim)
	case Goroutine:
		eng = &goroutineEngine{dim: dim, state: make([]Cell, 1<<uint(dim))}
	case CCC:
		r := 0
		for rr := 1; rr <= ccc.MaxR; rr++ {
			if t, _ := ccc.New(rr); t != nil && t.AddrBits == dim {
				r = rr
			}
		}
		var err error
		cccEng, err = cccsim.New[Cell](r)
		if err != nil {
			return nil, err
		}
		eng = cccEng
	default:
		return nil, fmt.Errorf("parttsolve: unknown engine %v", kind)
	}

	res := &Result{PEs: 1 << uint(dim), DimBits: dim, LogN: logN, Engine: kind}
	state := eng.State()
	iMask := 1<<uint(logN) - 1

	// Initialization: M[∅,i] = 0, M[S,i] = INF otherwise; the ∅ group is the
	// initial group mark; PS accumulates below.
	for addr := range state {
		s := addr >> uint(logN)
		state[addr] = Cell{M: core.Inf, MI: -1, Mark: s == 0}
		if s == 0 {
			state[addr].M = 0
		}
	}

	// p(S) by one ASCEND over the S-dimensions: a PE whose S contains element
	// e takes its partner's running sum plus P_e.
	weights := p.Weights
	eng.AscendRange(logN, dim, func(d, addr int, self, partner Cell) Cell {
		e := d - logN
		if addr>>uint(logN+e)&1 == 1 {
			self.PS = core.SatAdd(partner.PS, weights[e])
		}
		return self
	})
	res.DimSteps += k

	// TP[S,i] = t_i · p(S) (local).
	local(eng, res, func(addr int, c *Cell) {
		c.TP = core.SatMul(actions[addr&iMask].Cost, c.PS)
	})

	startRound := 1
	var fChoice []int32
	if f != nil {
		// Restore the machine to its state after round f.Level: every PE of a
		// completed group (#S <= f.Level) holds C(S) and its argmin — the
		// min-reduce of step (5) is an all-reduce over the action dimensions,
		// so the whole group agrees — and the group mark is the #S = f.Level
		// predicate the next first-kind propagation advances from. The
		// argmins are the lowest-index minimizers the skipped rounds would
		// have left, recomputed from the frontier.
		fChoice = make([]int32, len(f.C))
		for s := range fChoice {
			fChoice[s] = -1
			if s != 0 && popcount(s) <= f.Level {
				_, fChoice[s] = kn.Cell(f.C, core.Set(s))
			}
		}
		local(eng, res, func(addr int, c *Cell) {
			s := addr >> uint(logN)
			pc := popcount(s)
			if pc <= f.Level {
				c.M, c.MI = f.C[s], fChoice[s]
			}
			c.Mark = pc == f.Level
		})
		startRound = f.Level + 1
	}

	var ab *abft
	if opt.Verify {
		ab = newABFT(kn, p, actions, logN)
		if f != nil {
			ab.seed(f, fChoice)
		}
	}

	// runRound executes one complete round j (steps 1–5). It is re-runnable:
	// everything it reads — the frozen M/MI prefix, PS, TP, the mark plane —
	// is exactly what the ABFT repair rebuilds from the trusted mirror.
	runRound := func(j int) error {
		// (1) Advance the group mark: propagation of the first kind over the
		// S-dimensions.
		eng.AscendRange(logN, dim, func(d, addr int, self, partner Cell) Cell {
			e := d - logN
			if addr>>uint(logN+e)&1 == 1 && partner.Mark {
				self.Rcv = true
			}
			return self
		})
		res.DimSteps += k
		local(eng, res, func(addr int, c *Cell) {
			c.Mark, c.Rcv = c.Rcv, false
		})
		if debugChecks {
			if err := CheckGroupInvariant(eng.State(), logN, j); err != nil {
				return err
			}
		}

		// (2) Q = R = M locally.
		local(eng, res, func(addr int, c *Cell) {
			c.R, c.Q = c.M, c.M
		})

		// (3) The two broadcast loops share one ASCEND over the S-dimensions.
		eng.AscendRange(logN, dim, func(d, addr int, self, partner Cell) Cell {
			e := d - logN
			if addr>>uint(logN+e)&1 == 0 {
				return self // partner would be S ∪ {e}: no flow downward
			}
			a := actions[addr&iMask]
			if a.Set.Has(e) {
				self.R = partner.R // e ∈ S∩T_i
			} else {
				self.Q = partner.Q // e ∈ S−T_i
			}
			return self
		})
		res.DimSteps += k

		// (4) Combine on the active group. Actions that would not shrink S
		// need no special case: their R (or Q) still holds the initial
		// M[S,i] = INF, the paper's infinity-initialization argument.
		local(eng, res, func(addr int, c *Cell) {
			if !c.Mark {
				return
			}
			if padded[addr&iMask] {
				c.M = core.Inf // dummy padding action (paper: cost INF)
				c.MI = -1
				return
			}
			if actions[addr&iMask].Treatment {
				c.M = core.SatAdd(c.TP, c.R)
			} else {
				c.M = core.SatAdd(c.TP, core.SatAdd(c.R, c.Q))
			}
			c.MI = int32(addr & iMask)
			if c.M == core.Inf {
				c.MI = -1
			}
		})

		// (5) ASCEND minimization over the action-index dimensions,
		// carrying the argmin alongside (lowest index on ties, matching the
		// sequential DP's first-minimizer rule).
		eng.AscendRange(0, logN, func(d, addr int, self, partner Cell) Cell {
			if partner.M < self.M || (partner.M == self.M && partner.MI >= 0 &&
				(self.MI < 0 || partner.MI < self.MI)) {
				self.M, self.MI = partner.M, partner.MI
			}
			return self
		})
		res.DimSteps += logN
		if abftCorruptHook != nil {
			abftCorruptHook(j, eng.State())
		}
		return nil
	}

	// repair rebuilds the machine from the ABFT mirror as if round j-1 had
	// just completed — the same reconstruction a frontier restore performs,
	// extended to every recomputable plane (PS, TP, scratch), so only a fault
	// that re-asserts itself during the re-run can survive.
	repair := func(j int) {
		local(eng, res, func(addr int, c *Cell) {
			s := addr >> uint(logN)
			pc := popcount(s)
			if pc <= j-1 {
				c.M, c.MI = ab.c[s], ab.choice[s]
			} else {
				c.M, c.MI = core.Inf, -1
			}
			c.Mark = pc == j-1
			c.Rcv = false
			c.R, c.Q = 0, 0
			c.PS = ab.kn.Weight(core.Set(s))
			c.TP = core.SatMul(actions[addr&iMask].Cost, c.PS)
		})
	}

	for j := startRound; j <= k; j++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if ab != nil {
			ab.advance(j)
		}
		if err := runRound(j); err != nil {
			return nil, err
		}
		if ab != nil {
			if rep := ab.verify(eng.State(), j); !rep.OK() {
				repair(j)
				if err := runRound(j); err != nil {
					return nil, err
				}
				if rep = ab.verify(eng.State(), j); !rep.OK() {
					return nil, &certify.LevelError{Engine: kind.String(), Level: j, Report: rep}
				}
				res.Repairs++
			}
		}
		if ck != nil && j < k {
			c, _ := extractPlanes(eng, k, logN)
			if err := ck.CheckpointLevel(j, &core.Solution{C: c}); err != nil {
				return nil, fmt.Errorf("parttsolve: checkpoint at level %d: %w", j, err)
			}
		}
	}

	res.C, res.Choice = extractPlanes(eng, k, logN)
	res.Cost = res.C[len(res.C)-1]
	if cccEng != nil {
		res.CCCSteps = cccEng.Steps()
	}
	return res, nil
}

// extractPlanes reads the (C, Choice) tables off the machine: PE (S, 0)
// holds C(S) in M and the achieving action in MI after the round that
// activated S (and on every later round — completed groups are never
// rewritten).
func extractPlanes(eng Engine, k, logN int) (c []uint64, choice []int32) {
	state := eng.State()
	c = make([]uint64, 1<<uint(k))
	choice = make([]int32, 1<<uint(k))
	for s := range c {
		c[s] = state[s<<uint(logN)].M
		choice[s] = state[s<<uint(logN)].MI
		if s == 0 || c[s] == core.Inf {
			choice[s] = -1
		}
	}
	return c, choice
}

// local applies a per-PE update to the whole machine and counts one local
// SIMD step.
func local(eng Engine, res *Result, f func(addr int, c *Cell)) {
	state := eng.State()
	for addr := range state {
		f(addr, &state[addr])
	}
	res.LocalSteps++
}

// goroutineEngine adapts hypercube.AscendGoroutines to the Engine interface.
type goroutineEngine struct {
	dim   int
	state []Cell
}

func (g *goroutineEngine) State() []Cell { return g.state }

func (g *goroutineEngine) AscendRange(lo, hi int, op hypercube.Op[Cell]) {
	g.state = hypercube.AscendGoroutines(g.dim, lo, hi, g.state, op)
}

// ExpectedDimSteps returns the dimension-step count the algorithm performs
// for a universe of k objects and padded action bits logN: one k-dim p(S)
// pass plus, per round, a k-dim group pass, a k-dim broadcast pass and a
// logN-dim minimization — the measurable form of the paper's
// O(k·(k + log N)) parallel time.
func ExpectedDimSteps(k, logN int) int {
	return k + k*(2*k+logN)
}

// PaddedLogN returns the action-index width Solve will use for a problem
// with n actions on a non-CCC engine.
func PaddedLogN(n int) int {
	logN := 1
	for 1<<uint(logN) < n {
		logN++
	}
	return logN
}

// popcount is used by the self-check tests.
func popcount(x int) int { return bits.OnesCount(uint(x)) }

// CheckGroupInvariant verifies (for tests) that after round j the mark
// plane equals the #S = j predicate. Exposed so the test suite can assert
// the paper's PE-allocation claim directly.
func CheckGroupInvariant(state []Cell, logN, j int) error {
	for addr, c := range state {
		want := popcount(addr>>uint(logN)) == j
		if c.Mark != want {
			return fmt.Errorf("parttsolve: PE %d mark=%v, want %v at round %d", addr, c.Mark, want, j)
		}
	}
	return nil
}
