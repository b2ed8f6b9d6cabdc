// Package approx is the bounded-suboptimality plane: anytime solvers for TT
// instances past the exact-DP budget, every answer shipped with a defensible
// quality claim. Where internal/core's solvers enumerate the 2^K lattice,
// this package builds valid procedure trees in polynomial time and space,
// reading every subset mass p(S) and treatment floor L(S) from the per-byte
// tables of the same compiled core.Kernel the exact sweep runs —
//
//   - a greedy portfolio (the classic cost/probability-ratio rule and an
//     information-gain variant from the sequential-testing literature) that
//     always produces an incumbent in O(K²·N) with no 2^K state;
//   - an AND/OR branch-and-bound over candidate sets that uses the best
//     greedy tree as its incumbent upper bound and the certifiable
//     treatment/information lower bound (certify.LowerBound's per-set form,
//     derived here from the kernel) for pruning, memoizing subproblem bounds
//     so they are reusable. Its memos are core.SetTable open-addressing
//     tables keyed by set, which start small and double as the search
//     stores keys, and every node's candidates share one stack, so a
//     search's allocations do not grow with the nodes it expands;
//
// under an anytime contract: Solve never fails because time ran out. A
// deadline or node-budget expiry returns the best incumbent found so far,
// together with the lower bound that prices its optimality gap. The caller
// (internal/serve) then has the certifier independently re-price the tree
// and re-derive the bound before the answer can reach a cache or a client.
package approx

import (
	"context"
	"fmt"
	"time"

	"repro/internal/certify"
	"repro/internal/core"
)

// Options tunes one Solve call; the zero value runs the greedy portfolio
// plus a default-budget branch-and-bound with no deadline.
type Options struct {
	// Deadline bounds the branch-and-bound improvement phase; 0 means no
	// wall-clock bound beyond the context. The greedy incumbent is always
	// computed first, so a tight deadline degrades quality, not success.
	Deadline time.Duration
	// TargetMilli stops work as soon as the certified gap reaches the
	// target (certify.GapScale = demand proven optimality); 0 means improve
	// until the budget runs out.
	TargetMilli uint64
	// NodeBudget caps branch-and-bound node expansions. 0 selects the
	// default (1<<20); negative disables the branch-and-bound entirely,
	// leaving the greedy portfolio answer.
	NodeBudget int64
}

func (o Options) withDefaults() Options {
	if o.NodeBudget == 0 {
		o.NodeBudget = 1 << 20
	}
	return o
}

// Result is one anytime answer: a valid procedure tree (nil only for
// certifiably inadequate instances), its exact re-priceable cost, and the
// instance-level lower bound that prices the optimality gap.
type Result struct {
	Tree       *core.Node
	Cost       uint64 // exact cost of Tree (core.Inf when inadequate)
	LowerBound uint64 // certifiable lower bound on the optimum
	GapMilli   uint64 // certify.GapFor(Cost, LowerBound): proven Cost ≤ gap·OPT
	Exact      bool   // branch-and-bound ran to completion: Cost is the optimum
	Adequate   bool   // false: no successful procedure exists (Uncovered is the witness)
	Uncovered  int    // an object no treatment covers, when !Adequate
	Policy     string // which solver produced Tree: greedy-ratio, greedy-gain, bb
	Nodes      int64  // branch-and-bound nodes expanded
}

// Solve runs the anytime pipeline: adequacy witness, greedy portfolio,
// then branch-and-bound improvement within the budgets. The only errors are
// an invalid instance and a context that ends before any incumbent exists;
// once the portfolio has produced a tree, budget expiry (including the
// context deadline) returns that incumbent rather than failing — the
// anytime contract that lets a serving layer degrade instead of 5xx-ing.
func Solve(ctx context.Context, p *core.Problem, opts Options) (*Result, error) {
	st, err := newState(p)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	if j := st.uncovered(); j >= 0 {
		// Certifiably inadequate: object j can never be cured, so no
		// successful procedure exists at any cost.
		return &Result{Cost: core.Inf, LowerBound: core.Inf, GapMilli: certify.GapScale,
			Adequate: false, Exact: true, Uncovered: j, Policy: "coverage"}, nil
	}

	u := core.Universe(p.K)
	lb := st.lower(u)
	res := &Result{LowerBound: lb, Adequate: true, Uncovered: -1, Cost: core.Inf}

	// Greedy portfolio: both policies are cheap relative to any exact or
	// branch-and-bound work, and neither dominates the other across
	// workloads; keep the better tree as the incumbent.
	type attempt struct {
		policy string
		build  func() (*core.Node, error)
	}
	for _, at := range []attempt{
		{"greedy-ratio", func() (*core.Node, error) { return core.GreedyTree(p) }},
		{"greedy-gain", func() (*core.Node, error) { return st.greedyGain() }},
	} {
		tree, err := at.build()
		if err != nil {
			continue // the other policy or the B&B may still succeed
		}
		cost, err := core.TreeCostCtx(ctx, p, tree)
		if err != nil {
			if ctx.Err() != nil && res.Tree != nil {
				break // budget gone mid-portfolio: keep what we have
			}
			if ctx.Err() != nil {
				return nil, err
			}
			continue
		}
		if cost < res.Cost {
			res.Tree, res.Cost, res.Policy = tree, cost, at.policy
		}
	}
	if res.Tree == nil {
		// Both greedy policies failed on an adequate, validated instance;
		// nothing below can run without an incumbent.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("approx: no greedy incumbent for adequate instance")
	}
	res.GapMilli = certify.GapFor(res.Cost, res.LowerBound)
	if res.Cost == res.LowerBound {
		res.Exact = true // the bound is tight; no search needed
	}
	if res.Exact || opts.NodeBudget < 0 ||
		(opts.TargetMilli > 0 && res.GapMilli <= opts.TargetMilli) {
		return res, nil
	}

	// Branch-and-bound improvement phase, bounded by context, deadline, and
	// node budget. A completed search proves optimality; an interrupted one
	// leaves the incumbent standing.
	b := &bb{
		st:     st,
		memo:   core.NewSetTable[bbEntry](memoCap),
		cands:  make([]cand, 0, (p.K+1)*len(p.Actions)),
		budget: opts.NodeBudget,
		ctx:    ctx,
	}
	if opts.Deadline > 0 {
		b.deadline = time.Now().Add(opts.Deadline)
	}
	val, exact := b.solve(u, core.SatAdd(res.Cost, 1))
	res.Nodes = b.nodes
	if exact && val <= res.Cost {
		if tree, err := b.extract(u); err == nil {
			res.Tree, res.Cost, res.Policy, res.Exact = tree, val, "bb", true
			res.GapMilli = certify.GapFor(res.Cost, res.LowerBound)
		}
		// An extraction failure leaves the greedy incumbent standing: the
		// anytime contract never trades a valid tree for a proof.
	}
	if err := ctx.Err(); err != nil && res.Tree == nil {
		return nil, err
	}
	return res, nil
}
