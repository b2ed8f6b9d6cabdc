package core

import (
	"context"
	"fmt"
	"strings"
)

// Node is one vertex of a TT procedure tree (paper Figure 1). For a test
// node, Pos is the subtree entered on a positive response (candidates S∩T_i)
// and Neg on a negative one (S−T_i). For a treatment node, the positive
// outcome ends the procedure (the object is treated), so Pos is nil, and Neg
// is the subtree for a failed treatment (S−T_i) — nil when the treatment
// covers all of S.
type Node struct {
	Action int // index into Problem.Actions
	Set    Set // live candidate set at this node
	Pos    *Node
	Neg    *Node
}

// Tree extracts an optimal procedure tree from the solution's cost plane;
// see TreeFromCosts. It fails if the instance is inadequate.
func (s *Solution) Tree(p *Problem) (*Node, error) {
	if !s.Adequate() {
		return nil, fmt.Errorf("core: inadequate instance has no procedure tree")
	}
	return TreeFromCosts(p, s.C)
}

// TreeFromCosts extracts an optimal procedure tree from a finished cost
// plane, recomputing each visited node's argmin with the compiled kernel —
// at most 2K-1 cells, O(N·K) in all. Ties go to the lowest action index, as
// in every sweep, so the tree is the same whichever engine filled the plane.
func TreeFromCosts(p *Problem, c []uint64) (*Node, error) {
	if len(c) != 1<<uint(p.K) {
		return nil, fmt.Errorf("core: %d costs for a %d-object universe", len(c), p.K)
	}
	if c[len(c)-1] >= Inf {
		return nil, fmt.Errorf("core: inadequate instance has no procedure tree")
	}
	kn, err := compile(p)
	if err != nil {
		return nil, err
	}
	return buildNode(p, kn, c, Universe(p.K))
}

func buildNode(p *Problem, kn Kernel, c []uint64, set Set) (*Node, error) {
	if set == 0 {
		return nil, nil
	}
	_, idx := kn.Cell(c, set)
	if idx < 0 {
		return nil, fmt.Errorf("core: no action applies to set %v", set)
	}
	a := p.Actions[idx]
	n := &Node{Action: int(idx), Set: set}
	var err error
	if !a.Treatment {
		if n.Pos, err = buildNode(p, kn, c, set&a.Set); err != nil {
			return nil, err
		}
	}
	if n.Neg, err = buildNode(p, kn, c, set&^a.Set); err != nil {
		return nil, err
	}
	return n, nil
}

// TreeCost independently evaluates a procedure tree's expected cost: for
// every object j it walks the path j induces, sums the action costs along
// it, and weights by P_j. It returns an error if some object is never
// treated — i.e. the tree is not a successful TT procedure — or if a node's
// branches are inconsistent with its action. It is deliberately ignorant of
// the DP so it can serve as an oracle for Solve.
func TreeCost(p *Problem, root *Node) (uint64, error) {
	return TreeCostCtx(context.Background(), p, root)
}

// TreeCostCtx is TreeCost with cancellation: the context is polled every
// ctxStride visited nodes, so pricing an adversarially large caller-supplied
// tree (serve's /v1/eval accepts up to 2^K policy states) stops promptly
// when the request is abandoned.
func TreeCostCtx(ctx context.Context, p *Problem, root *Node) (uint64, error) {
	// A small valid tree finishes well inside one stride, so an
	// already-abandoned request must be caught here, not at the first poll.
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	var total uint64
	var visited int
	for j := 0; j < p.K; j++ {
		var pathCost uint64
		n := root
		treated := false
		for n != nil {
			if visited++; visited&(ctxStride-1) == 0 {
				if err := ctx.Err(); err != nil {
					return 0, err
				}
			}
			if !n.Set.Has(j) {
				return 0, fmt.Errorf("core: object %d reached node with set %v not containing it", j, n.Set)
			}
			a := p.Actions[n.Action]
			pathCost = satAdd(pathCost, a.Cost)
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
			return 0, fmt.Errorf("core: object %d is never treated", j)
		}
		total = satAdd(total, satMul(pathCost, p.Weights[j]))
	}
	return total, nil
}

// Depth returns the longest root-to-leaf path length in nodes.
func (n *Node) Depth() int {
	if n == nil {
		return 0
	}
	return 1 + max(n.Pos.Depth(), n.Neg.Depth())
}

// CountNodes returns the number of nodes in the tree.
func (n *Node) CountNodes() int {
	if n == nil {
		return 0
	}
	return 1 + n.Pos.CountNodes() + n.Neg.CountNodes()
}

// Render draws the tree in the style of the paper's Figure 1: one node per
// line, indented by depth; test branches are labeled +/- and treatment nodes
// are marked, with the treated set shown doubled (the figure's double arc).
func (n *Node) Render(p *Problem) string {
	var sb strings.Builder
	n.render(p, &sb, "", "")
	return sb.String()
}

func (n *Node) render(p *Problem, sb *strings.Builder, prefix, branch string) {
	if n == nil {
		return
	}
	a := p.Actions[n.Action]
	kind := "test"
	if a.Treatment {
		kind = "treat"
	}
	name := a.Name
	if name == "" {
		name = fmt.Sprintf("T%d", n.Action+1)
	}
	fmt.Fprintf(sb, "%s%s%s %s %v cost=%d on %v", prefix, branch, kind, name, a.Set, a.Cost, n.Set)
	if a.Treatment {
		fmt.Fprintf(sb, "  ==> treats %v", n.Set&a.Set)
	}
	sb.WriteByte('\n')
	childPrefix := prefix + "  "
	if !a.Treatment {
		n.Pos.render(p, sb, childPrefix, "+ ")
	}
	n.Neg.render(p, sb, childPrefix, "- ")
}
