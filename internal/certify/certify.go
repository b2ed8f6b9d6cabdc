// Package certify is the engine-independent answer verifier behind the
// silent-corruption defense (docs/RESILIENCE.md, "Silent data corruption").
// A stuck PE bit or a broken lateral route in a simulated machine produces a
// *wrong* answer, not an error — so nothing in the error-handling path
// notices. This package re-derives what an engine claims from first
// principles, using only the recurrence
//
//	C(∅)  = 0
//	C(S)  = min_i M[S,i]
//	M[S,i] = t_i·p(S) + C(S∩T_i) + C(S−T_i)   (tests)
//	M[S,i] = t_i·p(S) + C(S−T_i)              (treatments)
//
// and the definition of a successful TT procedure, and reports typed
// Violations instead of trusting the engine.
//
// Three checks, in increasing cost:
//
//   - Tree: structural validity of a returned procedure tree (every object
//     terminated exactly once, tests/treatments used legally, child sets
//     exactly S∩T_i / S−T_i) plus a bottom-up re-pricing compared to the
//     reported C(U). O(K²) — far cheaper than re-solving.
//   - Table: shape invariants of a full cost table and a recomputation of the
//     top cell C(U) from its own entries. O(N).
//   - Monotone and Cells: full monotonicity scan and a seeded spot-audit of
//     sampled DP cells (S,i) against direct recomputation. O(K·2^K) /
//     O(sample·N·K) — audit mode only.
//
// Check dispatches on Mode; serve runs it on every answer before caching.
package certify

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/core"
)

// Mode selects how much of an answer is re-verified before it is trusted.
type Mode int

const (
	// ModeOff trusts engines blindly (the pre-certify behavior).
	ModeOff Mode = iota
	// ModeFast re-prices the returned procedure tree (or, for cost-only
	// answers, recomputes the top DP cell) — cheap enough for every request.
	ModeFast
	// ModeAudit adds the full-table monotonicity scan and a spot-audit of
	// sampled DP cells against the recurrence.
	ModeAudit
)

// ParseMode parses the -certify flag values "off", "fast", and "audit".
func ParseMode(s string) (Mode, error) {
	switch s {
	case "off":
		return ModeOff, nil
	case "fast", "":
		return ModeFast, nil
	case "audit":
		return ModeAudit, nil
	}
	return ModeOff, fmt.Errorf("certify: unknown mode %q (want off, fast, or audit)", s)
}

func (m Mode) String() string {
	switch m {
	case ModeOff:
		return "off"
	case ModeFast:
		return "fast"
	case ModeAudit:
		return "audit"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Kind classifies a Violation.
type Kind string

const (
	// BadStructure: the tree is malformed — action out of range, node set
	// empty or outside the universe, a child's candidate set is not exactly
	// S∩T_i / S−T_i, a test that does not split its set, a treatment that
	// treats nothing, or a treatment node with a positive subtree.
	BadStructure Kind = "structure"
	// BadTermination: some object's induced path never reaches a treatment
	// covering it.
	BadTermination Kind = "termination"
	// BadPrice: the bottom-up re-priced tree cost disagrees with the
	// reported C(U).
	BadPrice Kind = "price"
	// BadShape: the cost table has the wrong geometry or C(∅) ≠ 0.
	BadShape Kind = "table-shape"
	// BadCell: a DP cell disagrees with direct recomputation from the
	// recurrence over the table's own proper-subset entries.
	BadCell Kind = "cell"
	// BadChoice: a recorded argmin is not the lowest-index minimizer.
	BadChoice Kind = "choice"
	// BadMonotone: C(S−{j}) > C(S) for some S and j ∈ S — impossible for a
	// true cost function, since a procedure for S restricted to a subset is
	// valid and no more expensive.
	BadMonotone Kind = "monotone"
	// BadConservation: p(S∩T_i) + p(S−T_i) ≠ p(S) for a probability plane.
	BadConservation Kind = "conservation"
)

// Violation is one certification failure, locating the disagreement.
type Violation struct {
	Kind   Kind
	Set    core.Set // the candidate set involved (0 when not applicable)
	Action int      // action index involved, -1 when not applicable
	Got    uint64   // the engine's value
	Want   uint64   // the independently recomputed value
	Node   string   // worker the value came from ("" for in-process engines)
	Detail string
}

func (v Violation) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s at S=%v", v.Kind, v.Set)
	if v.Action >= 0 {
		fmt.Fprintf(&sb, " action=%d", v.Action)
	}
	if v.Node != "" {
		fmt.Fprintf(&sb, " node=%s", v.Node)
	}
	if v.Got != v.Want {
		fmt.Fprintf(&sb, " got=%s want=%s", costStr(v.Got), costStr(v.Want))
	}
	if v.Detail != "" {
		fmt.Fprintf(&sb, ": %s", v.Detail)
	}
	return sb.String()
}

func costStr(c uint64) string {
	if c == core.Inf {
		return "inf"
	}
	return fmt.Sprintf("%d", c)
}

// Report collects the violations found by one or more checks.
type Report struct {
	Violations []Violation
	Checked    int // DP cells audited by Cells (0 for other checks)
}

// OK reports whether no violation was found.
func (r *Report) OK() bool { return r == nil || len(r.Violations) == 0 }

// Err returns nil for a clean report and an *Error otherwise, so callers can
// fail a solve attempt with errors.As-matchable evidence.
func (r *Report) Err() error {
	if r.OK() {
		return nil
	}
	return &Error{Report: r}
}

func (r *Report) add(v Violation) { r.Violations = append(r.Violations, v) }

// merge appends o's findings into r.
func (r *Report) merge(o *Report) {
	if o == nil {
		return
	}
	r.Violations = append(r.Violations, o.Violations...)
	r.Checked += o.Checked
}

// Error wraps a failed Report as an error.
type Error struct{ Report *Report }

func (e *Error) Error() string {
	n := len(e.Report.Violations)
	return fmt.Sprintf("certify: %d violation(s); first: %s", n, e.Report.Violations[0])
}

// LevelError is returned by an engine whose in-run ABFT invariants failed at
// a level barrier and whose localized recompute could not repair the damage
// (a persistent hardware-model fault rather than a transient upset).
type LevelError struct {
	Engine string
	Level  int
	Report *Report
}

func (e *LevelError) Error() string {
	n := len(e.Report.Violations)
	return fmt.Sprintf("certify: %s engine failed ABFT at level %d after recompute: %d violation(s); first: %s",
		e.Engine, e.Level, n, e.Report.Violations[0])
}

// Tree certifies a returned procedure tree against the problem and the
// reported optimum: structural validity, per-object termination, and a
// bottom-up re-pricing compared to reported. It is deliberately independent
// of the DP tables and of core.TreeCost's path-walk formulation, so a bug or
// fault that corrupts both the answer and the table cannot also corrupt the
// audit. The problem is assumed Validate()-clean.
func Tree(p *core.Problem, root *core.Node, reported uint64) *Report {
	r, total, priced := treeChecks(p, root)
	if !priced {
		return r // structure is broken; the price is meaningless
	}
	if total != reported {
		r.add(Violation{Kind: BadPrice, Set: core.Universe(p.K), Action: -1, Got: reported, Want: total,
			Detail: "bottom-up re-priced tree cost disagrees with reported C(U)"})
	}
	return r
}

// TreeStructure runs the structural and termination checks of Tree without a
// reported optimum to compare against: it certifies that root is a
// well-formed, successful TT procedure for p, nothing more. This is the gate
// for caller-supplied trees (serve's /v1/eval) whose cost is about to be
// *computed* rather than verified — a malformed tree must be rejected before
// any pricing walk trusts its shape.
func TreeStructure(p *core.Problem, root *core.Node) *Report {
	r, _, _ := treeChecks(p, root)
	return r
}

// treeChecks is the shared body of Tree and TreeStructure: root/universe
// validation, the recursive structure check, and the per-object termination
// walk. It returns the bottom-up price and whether that price is meaningful
// (the structural recursion found no violation).
func treeChecks(p *core.Problem, root *core.Node) (r *Report, total uint64, priced bool) {
	r = &Report{}
	if root == nil {
		r.add(Violation{Kind: BadStructure, Action: -1, Detail: "nil procedure tree"})
		return r, 0, false
	}
	u := core.Universe(p.K)
	if root.Set != u {
		r.add(Violation{Kind: BadStructure, Set: root.Set, Action: -1,
			Detail: fmt.Sprintf("root candidate set is not the universe %v", u)})
		return r, 0, false
	}
	total = priceNode(p, root, r)
	if !r.OK() {
		return r, 0, false
	}
	// Belt and braces on termination: the structural recursion already
	// guarantees every object is treated exactly once (child sets partition,
	// leaves are full-cover treatments), but walk each object's induced path
	// anyway so a violated guarantee is reported as what it is.
	for j := 0; j < p.K; j++ {
		n, treated := root, false
		for n != nil {
			a := p.Actions[n.Action]
			if a.Treatment {
				if a.Set.Has(j) {
					treated = true
					break
				}
				n = n.Neg
			} else if a.Set.Has(j) {
				n = n.Pos
			} else {
				n = n.Neg
			}
		}
		if !treated {
			r.add(Violation{Kind: BadTermination, Set: core.SetOf(j), Action: -1,
				Detail: fmt.Sprintf("object %d is never treated", j)})
		}
	}
	return r, total, true
}

// priceNode recursively validates one node's structure and returns the
// expected cost of the subtree: t_i·p(S) plus the children's costs. On a
// structural violation it records it and stops descending that branch (the
// returned price is then unused — Tree discards it when the report is dirty).
// Structure checks run before recursion, so child sets strictly shrink and
// the walk terminates even on adversarial trees.
func priceNode(p *core.Problem, n *core.Node, r *Report) uint64 {
	if n.Action < 0 || n.Action >= len(p.Actions) {
		r.add(Violation{Kind: BadStructure, Set: n.Set, Action: n.Action, Detail: "action index out of range"})
		return 0
	}
	if n.Set == 0 || n.Set&^core.Universe(p.K) != 0 {
		r.add(Violation{Kind: BadStructure, Set: n.Set, Action: n.Action, Detail: "candidate set empty or outside the universe"})
		return 0
	}
	a := p.Actions[n.Action]
	inter := n.Set & a.Set
	diff := n.Set &^ a.Set
	cost := core.SatMul(a.Cost, psum(p, n.Set))
	if a.Treatment {
		if inter == 0 {
			r.add(Violation{Kind: BadStructure, Set: n.Set, Action: n.Action, Detail: "treatment treats nothing in its candidate set"})
			return 0
		}
		if n.Pos != nil {
			r.add(Violation{Kind: BadStructure, Set: n.Set, Action: n.Action, Detail: "treatment node has a positive subtree"})
			return 0
		}
		if diff == 0 {
			if n.Neg != nil {
				r.add(Violation{Kind: BadStructure, Set: n.Set, Action: n.Action, Detail: "full-cover treatment has a negative subtree"})
				return 0
			}
			return cost
		}
		if n.Neg == nil || n.Neg.Set != diff {
			r.add(Violation{Kind: BadStructure, Set: n.Set, Action: n.Action,
				Detail: fmt.Sprintf("negative subtree must cover exactly S−T = %v", diff)})
			return 0
		}
		return core.SatAdd(cost, priceNode(p, n.Neg, r))
	}
	if inter == 0 || diff == 0 {
		r.add(Violation{Kind: BadStructure, Set: n.Set, Action: n.Action, Detail: "test does not split its candidate set"})
		return 0
	}
	if n.Pos == nil || n.Pos.Set != inter {
		r.add(Violation{Kind: BadStructure, Set: n.Set, Action: n.Action,
			Detail: fmt.Sprintf("positive subtree must cover exactly S∩T = %v", inter)})
		return 0
	}
	if n.Neg == nil || n.Neg.Set != diff {
		r.add(Violation{Kind: BadStructure, Set: n.Set, Action: n.Action,
			Detail: fmt.Sprintf("negative subtree must cover exactly S−T = %v", diff)})
		return 0
	}
	return core.SatAdd(cost, core.SatAdd(priceNode(p, n.Pos, r), priceNode(p, n.Neg, r)))
}

// psum computes p(S) directly from the weights in O(|S|), independent of any
// engine's PSum plane.
func psum(p *core.Problem, s core.Set) uint64 {
	var t uint64
	for _, j := range s.Objects() {
		t = core.SatAdd(t, p.Weights[j])
	}
	return t
}

// Table checks the cheap shape invariants of a full cost table: geometry,
// C(∅) = 0, and the top cell C(U) recomputed as min_i M[U,i] from the
// table's own entries. This is the fast-mode fallback for answers that carry
// no procedure tree (cost-only engines, inadequate instances).
func Table(p *core.Problem, c []uint64) *Report {
	r := &Report{}
	size := 1 << uint(p.K)
	if len(c) != size {
		r.add(Violation{Kind: BadShape, Action: -1,
			Detail: fmt.Sprintf("table has %d entries for a %d-object universe", len(c), p.K)})
		return r
	}
	if c[0] != 0 {
		r.add(Violation{Kind: BadShape, Action: -1, Got: c[0], Want: 0, Detail: "C(∅) must be 0"})
	}
	u := core.Universe(p.K)
	best, _ := recompute(p, c, u, psum(p, u))
	if c[u] != best {
		r.add(Violation{Kind: BadCell, Set: u, Action: -1, Got: c[u], Want: best,
			Detail: "top cell disagrees with min_i M[U,i] over the table's own entries"})
	}
	return r
}

// Monotone scans the whole table for monotonicity: C(S−{j}) ≤ C(S) for every
// S and every j ∈ S. A true cost function is monotone (an optimal procedure
// for S, restricted to a subset, is a valid procedure for the subset and
// costs no more), so any inversion is corruption. O(K·2^K), audit mode only.
func Monotone(p *core.Problem, c []uint64) *Report {
	r := &Report{}
	size := 1 << uint(p.K)
	if len(c) != size {
		r.add(Violation{Kind: BadShape, Action: -1,
			Detail: fmt.Sprintf("table has %d entries for a %d-object universe", len(c), p.K)})
		return r
	}
	for s := 1; s < size; s++ {
		for x := uint32(s); x != 0; x &= x - 1 {
			sub := s &^ int(x&-x)
			if c[sub] > c[s] {
				r.add(Violation{Kind: BadMonotone, Set: core.Set(s), Action: -1, Got: c[s], Want: c[sub],
					Detail: fmt.Sprintf("C(%v) < C of its subset %v", core.Set(s), core.Set(sub))})
				if len(r.Violations) >= 8 {
					return r // corruption established; don't flood
				}
			}
		}
	}
	return r
}

// Cells spot-audits sample subsets drawn from a seeded PRNG: for each subset
// S it recomputes every cell M[S,i] from the recurrence over the table's own
// proper-subset entries (including the probability-conservation identity
// p(S∩T_i) + p(S−T_i) = p(S)) and requires C[S] to equal their minimum —
// and, when a choice plane is given, the recorded argmin to be the
// lowest-index minimizer. A table that passes this for all subsets is *the*
// DP table; sampling trades certainty for cost.
func Cells(p *core.Problem, c []uint64, choice []int32, sample int, seed int64) *Report {
	r := &Report{}
	size := 1 << uint(p.K)
	if len(c) != size || (choice != nil && len(choice) != size) {
		r.add(Violation{Kind: BadShape, Action: -1,
			Detail: fmt.Sprintf("table has %d costs / %d choices for a %d-object universe", len(c), len(choice), p.K)})
		return r
	}
	if sample > size-1 {
		sample = size - 1
	}
	rng := rand.New(rand.NewSource(seed))
	for n := 0; n < sample; n++ {
		s := core.Set(1 + rng.Intn(size-1))
		ps := psum(p, s)
		best, bestIdx := recompute(p, c, s, ps)
		r.Checked += len(p.Actions)
		if c[s] != best {
			r.add(Violation{Kind: BadCell, Set: s, Action: -1, Got: c[s], Want: best,
				Detail: "cell disagrees with direct recomputation from the recurrence"})
		} else if choice != nil && choice[s] != bestIdx {
			r.add(Violation{Kind: BadChoice, Set: s, Action: int(choice[s]), Got: uint64(choice[s]), Want: uint64(bestIdx),
				Detail: "recorded argmin is not the lowest-index minimizer"})
		}
		for i, a := range p.Actions {
			inter, diff := s&a.Set, s&^a.Set
			if core.SatAdd(psum(p, inter), psum(p, diff)) != ps {
				r.add(Violation{Kind: BadConservation, Set: s, Action: i, Want: ps,
					Got:    core.SatAdd(psum(p, inter), psum(p, diff)),
					Detail: "p(S∩T) + p(S−T) ≠ p(S)"})
			}
		}
		if len(r.Violations) >= 8 {
			return r
		}
	}
	return r
}

// recompute evaluates C(S) = min_i M[S,i] from the recurrence, reading the
// pieces from the supplied table, with the same exclusion rules and
// lowest-index tie-breaking as every engine.
func recompute(p *core.Problem, c []uint64, s core.Set, ps uint64) (best uint64, bestIdx int32) {
	best, bestIdx = core.Inf, -1
	for i, a := range p.Actions {
		inter := s & a.Set
		diff := s &^ a.Set
		cost := core.SatMul(a.Cost, ps)
		if a.Treatment {
			if inter == 0 {
				cost = core.Inf
			} else {
				cost = core.SatAdd(cost, c[diff])
			}
		} else {
			if inter == 0 || diff == 0 {
				cost = core.Inf
			} else {
				cost = core.SatAdd(cost, core.SatAdd(c[inter], c[diff]))
			}
		}
		if cost < best {
			best, bestIdx = cost, int32(i)
		}
	}
	return best, bestIdx
}

// auditSample is the number of subsets Cells draws in audit mode.
const auditSample = 256

// Check certifies a full answer under mode and returns the (possibly clean)
// report. root may be nil for cost-only answers; c and choice may be nil when
// the engine kept no table (then only the tree check can run). seed
// determines the audit sample — pass anything deterministic per answer.
func Check(p *core.Problem, cost uint64, root *core.Node, c []uint64, choice []int32, mode Mode, seed int64) *Report {
	r := &Report{}
	if mode == ModeOff {
		return r
	}
	if root != nil {
		r.merge(Tree(p, root, cost))
	} else if c != nil {
		r.merge(Table(p, c))
		if cost != c[len(c)-1] {
			r.add(Violation{Kind: BadPrice, Set: core.Universe(p.K), Action: -1, Got: cost, Want: c[len(c)-1],
				Detail: "reported cost disagrees with the table's top cell"})
		}
	} else if cost != core.Inf {
		// A finite claimed optimum with neither a tree nor a table is
		// unverifiable; refuse to certify rather than rubber-stamp.
		r.add(Violation{Kind: BadStructure, Action: -1, Got: cost, Want: cost,
			Detail: "finite cost with no tree or table to certify against"})
	}
	if mode == ModeAudit && c != nil {
		r.merge(Monotone(p, c))
		r.merge(Cells(p, c, choice, auditSample, seed))
	}
	return r
}
