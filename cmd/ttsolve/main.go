// Command ttsolve solves a test-and-treatment instance given as JSON, with a
// choice of solver engines: the sequential DP, the parallel ASCEND algorithm
// on the lockstep/goroutine/CCC engines, or the instruction-level BVM
// program.
//
// Usage:
//
//	ttsolve [-engine seq|lockstep|goroutine|ccc|bvm] [-certify off|fast|audit] [-approx off|RATIO|DEADLINE] [-tree] [-greedy] [file.json]
//
// Reading from stdin when no file is given. The instance format:
//
//	{
//	  "weights": [8, 4, 2, 1],
//	  "actions": [
//	    {"name": "swab", "objects": [0, 1], "cost": 2, "treatment": false},
//	    {"name": "rest", "objects": [0],   "cost": 3, "treatment": true}
//	  ]
//	}
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/approx"
	"repro/internal/bvmtt"
	"repro/internal/certify"
	"repro/internal/core"
	"repro/internal/instio"
	"repro/internal/parttsolve"
	"repro/internal/simulate"
)

// run buffers all report output and surfaces the flush error: when stdout is
// a full disk or closed pipe the command must exit nonzero, not silently
// truncate (fmt.Fprintf return values are otherwise unchecked).
func run(args []string, stdin io.Reader, stdout io.Writer) error {
	out := bufio.NewWriter(stdout)
	err := solve(args, stdin, out)
	if ferr := out.Flush(); err == nil && ferr != nil {
		err = fmt.Errorf("ttsolve: writing output: %w", ferr)
	}
	return err
}

func solve(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("ttsolve", flag.ContinueOnError)
	engine := fs.String("engine", "seq", "solver: seq, lockstep, goroutine, ccc, or bvm")
	showTree := fs.Bool("tree", false, "print the optimal procedure tree (seq engine)")
	showDOT := fs.Bool("dot", false, "print the optimal tree as Graphviz DOT (seq engine)")
	showStats := fs.Bool("stats", false, "print procedure-tree statistics (seq engine)")
	mcTrials := fs.Int("simulate", 0, "Monte-Carlo trials validating the tree's expected cost (seq engine)")
	policyOut := fs.String("policy", "", "write the reachable-state policy as JSON to this file (seq engine)")
	explain := fs.Bool("explain", false, "print the per-action M[U,i] pricing table (seq engine)")
	showGreedy := fs.Bool("greedy", false, "also report the greedy heuristic's cost")
	approxFlag := fs.String("approx", "off", "anytime solve with a certified gap instead of the exact DP: a target ratio >= 1 (1.5 = within 50%) or a deadline like 200ms")
	certifyFlag := fs.String("certify", "off", "certify the answer before reporting it: off, fast, or audit; simulated-machine engines also run their ABFT layer")
	fs.SetOutput(stdout)
	if err := fs.Parse(args); err != nil {
		return err
	}
	mode, err := certify.ParseMode(*certifyFlag)
	if err != nil {
		return fmt.Errorf("ttsolve: %w", err)
	}

	in := stdin
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	p, err := instio.Read(in)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "instance: %d objects, %d tests, %d treatments\n",
		p.K, p.NumTests(), p.NumTreatments())

	ap, err := approx.ParseSpec(*approxFlag)
	if err != nil {
		return fmt.Errorf("ttsolve: %w", err)
	}
	if ap.Enabled {
		return solveApprox(p, ap, *showTree, stdout)
	}

	var (
		cost    uint64
		cplane  []uint64
		choices []int32
	)
	switch *engine {
	case "seq":
		sol, err := core.Solve(p)
		if err != nil {
			return err
		}
		cost, cplane = sol.Cost, sol.C
		if *explain {
			fmt.Fprintln(stdout, "action pricing at the full universe (M[U,i]):")
			for _, row := range core.Explain(p, sol, core.Universe(p.K)) {
				mark := " "
				if row.Optimal {
					mark = "*"
				}
				val := "excluded"
				if row.Applicable {
					val = fmt.Sprintf("%d", row.M)
				}
				fmt.Fprintf(stdout, "  %s %-18s %s\n", mark, row.Name, val)
			}
		}
		if *policyOut != "" && sol.Adequate() {
			pol, err := core.NewPolicy(p, sol)
			if err != nil {
				return err
			}
			data, err := json.MarshalIndent(pol, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(*policyOut, data, 0o644); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "policy with %d reachable states written to %s\n", pol.States(), *policyOut)
		}
		if (*showTree || *showDOT || *showStats || *mcTrials > 0) && sol.Adequate() {
			tree, err := sol.Tree(p)
			if err != nil {
				return err
			}
			if *showTree {
				fmt.Fprint(stdout, tree.Render(p))
			}
			if *showDOT {
				fmt.Fprint(stdout, tree.DOT(p, "procedure"))
			}
			if *showStats {
				st, err := core.Stats(p, tree)
				if err != nil {
					return err
				}
				fmt.Fprintf(stdout, "stats: %v\n", st)
			}
			if *mcTrials > 0 {
				est, err := simulate.EstimateCost(p, tree, 1, *mcTrials)
				if err != nil {
					return err
				}
				fmt.Fprintf(stdout, "monte-carlo (%d trials): %.1f ± %.1f\n",
					est.Trials, est.Mean, est.StdErr)
			}
		}
	case "lockstep", "goroutine", "ccc":
		kind := map[string]parttsolve.EngineKind{
			"lockstep": parttsolve.Lockstep, "goroutine": parttsolve.Goroutine, "ccc": parttsolve.CCC,
		}[*engine]
		res, err := parttsolve.SolveOpts(context.Background(), p, kind,
			parttsolve.Options{Verify: mode != certify.ModeOff})
		if err != nil {
			return err
		}
		cost, cplane, choices = res.Cost, res.C, res.Choice
		fmt.Fprintf(stdout, "parallel machine: %d PEs, %d dimension steps", res.PEs, res.DimSteps)
		if res.CCCSteps > 0 {
			fmt.Fprintf(stdout, ", %d CCC steps", res.CCCSteps)
		}
		fmt.Fprintln(stdout)
		if res.Repairs > 0 {
			fmt.Fprintf(stdout, "ABFT: %d round repairs\n", res.Repairs)
		}
	case "bvm":
		res, err := bvmtt.SolveOpts(context.Background(), p,
			bvmtt.Options{Verify: mode != certify.ModeOff})
		if err != nil {
			return err
		}
		cost, cplane = res.Cost, res.C
		fmt.Fprintf(stdout, "BVM: %d PEs, %d-bit words, %d instructions (%d loading)\n",
			res.PEs, res.Width, res.Instructions, res.LoadInstructions)
		if res.Repairs > 0 {
			fmt.Fprintf(stdout, "ABFT: %d round repairs\n", res.Repairs)
		}
	default:
		return fmt.Errorf("ttsolve: unknown engine %q", *engine)
	}

	if mode != certify.ModeOff {
		rep := certify.Check(p, cost, nil, cplane, choices, mode, 0)
		if !rep.OK() {
			fmt.Fprintf(stdout, "certify: FAILED (%d violations)\n", len(rep.Violations))
			for _, v := range rep.Violations {
				fmt.Fprintf(stdout, "  %s\n", v)
			}
			return fmt.Errorf("ttsolve: answer failed %s certification", mode)
		}
		if rep.Checked > 0 {
			fmt.Fprintf(stdout, "certify: PASS (%s, %d cells audited)\n", mode, rep.Checked)
		} else {
			fmt.Fprintf(stdout, "certify: PASS (%s)\n", mode)
		}
	}
	if cost == core.Inf {
		fmt.Fprintln(stdout, "result: INADEQUATE — no successful procedure exists")
	} else {
		fmt.Fprintf(stdout, "minimum expected cost C(U) = %d\n", cost)
	}
	if *showGreedy {
		g, err := core.GreedyCost(p)
		if err != nil {
			fmt.Fprintf(stdout, "greedy: failed (%v)\n", err)
		} else {
			fmt.Fprintf(stdout, "greedy heuristic cost = %d\n", g)
		}
	}
	return nil
}

// solveApprox runs the bounded-suboptimality plane (internal/approx): the
// anytime greedy-plus-branch-and-bound pipeline, then mandatory independent
// gap certification — an approximate answer is only reported once the
// certifier has re-priced the tree and re-derived the lower bound itself.
func solveApprox(p *core.Problem, ap approx.Spec, showTree bool, stdout io.Writer) error {
	res, err := approx.Solve(context.Background(), p, approx.Options{
		Deadline:    ap.Deadline,
		TargetMilli: ap.TargetMilli,
	})
	if err != nil {
		return fmt.Errorf("ttsolve: %w", err)
	}
	if !res.Adequate {
		if rep := certify.CheckInadequate(p); !rep.OK() {
			return fmt.Errorf("ttsolve: inadequacy claim failed certification: %w", rep.Err())
		}
		fmt.Fprintf(stdout, "certify: PASS (inadequacy witness: object %d has no covering treatment)\n", res.Uncovered)
		fmt.Fprintln(stdout, "result: INADEQUATE — no successful procedure exists")
		return nil
	}
	cert, err := certify.CertifyGap(p, res.Tree, res.Cost, res.GapMilli)
	if err != nil {
		return fmt.Errorf("ttsolve: approx answer failed gap certification: %w", err)
	}
	fmt.Fprintf(stdout, "certify: PASS (gap, cost re-priced, bound re-derived)\n")
	fmt.Fprintf(stdout, "approx cost = %d (policy %s, %d B&B nodes)\n", cert.Cost(), res.Policy, res.Nodes)
	fmt.Fprintf(stdout, "lower bound = %d, certified gap = %d.%03d×\n",
		cert.LowerBound(), cert.GapMilli()/certify.GapScale, cert.GapMilli()%certify.GapScale)
	if res.Exact {
		fmt.Fprintln(stdout, "branch-and-bound completed: this cost is the proven optimum")
	}
	if showTree {
		fmt.Fprint(stdout, res.Tree.Render(p))
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
