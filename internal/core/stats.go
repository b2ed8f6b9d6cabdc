package core

import "fmt"

// TreeStats summarizes a procedure tree operationally: what a fielded policy
// costs in actions, not just in expected cost units.
type TreeStats struct {
	// Nodes and Depth describe the tree itself.
	Nodes, Depth int
	// TestNodes and TreatmentNodes partition the nodes by action kind.
	TestNodes, TreatmentNodes int
	// ExpectedActions is the weight-averaged number of actions executed,
	// scaled by the total weight (divide by p(U) for the true expectation).
	ExpectedActions uint64
	// WorstPathCost is the maximum total cost over any object's path.
	WorstPathCost uint64
	// WorstPathLen is the maximum number of actions on any object's path.
	WorstPathLen int
}

// Stats computes TreeStats for a valid procedure tree on problem p.
func Stats(p *Problem, root *Node) (*TreeStats, error) {
	if root == nil {
		return nil, fmt.Errorf("core: nil procedure tree")
	}
	st := &TreeStats{Nodes: root.CountNodes(), Depth: root.Depth()}
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == nil {
			return
		}
		if p.Actions[n.Action].Treatment {
			st.TreatmentNodes++
		} else {
			st.TestNodes++
		}
		walk(n.Pos)
		walk(n.Neg)
	}
	walk(root)

	for j := 0; j < p.K; j++ {
		var pathCost uint64
		length := 0
		n := root
		treated := false
		for n != nil {
			a := p.Actions[n.Action]
			pathCost = satAdd(pathCost, a.Cost)
			length++
			if a.Treatment && a.Set.Has(j) {
				treated = true
				break
			}
			if a.Treatment || !a.Set.Has(j) {
				n = n.Neg
			} else {
				n = n.Pos
			}
		}
		if !treated {
			return nil, fmt.Errorf("core: object %d is never treated", j)
		}
		st.ExpectedActions = satAdd(st.ExpectedActions, satMul(uint64(length), p.Weights[j]))
		if pathCost > st.WorstPathCost {
			st.WorstPathCost = pathCost
		}
		if length > st.WorstPathLen {
			st.WorstPathLen = length
		}
	}
	return st, nil
}

func (st *TreeStats) String() string {
	return fmt.Sprintf("%d nodes (%d tests, %d treatments), depth %d, worst path %d actions / cost %d",
		st.Nodes, st.TestNodes, st.TreatmentNodes, st.Depth, st.WorstPathLen, st.WorstPathCost)
}

// ActionEval is one row of an Explain table: how one action prices out at a
// candidate set.
type ActionEval struct {
	Action     int
	Name       string
	Applicable bool
	M          uint64 // M[S,i]; Inf when excluded
	Optimal    bool
}

// Explain prices every action at candidate set s against a finished
// solution — the paper's M[S,i] row made inspectable, for debugging and for
// teaching why the optimal procedure does what it does. Each row is Cell
// over that one action; the optimal row is Cell's argmin over all of them.
func Explain(p *Problem, sol *Solution, s Set) []ActionEval {
	out := make([]ActionEval, len(p.Actions))
	_, opt := Cell(p, sol.C, s)
	for i, a := range p.Actions {
		name := a.Name
		if name == "" {
			name = fmt.Sprintf("T%d", i+1)
		}
		one := Problem{K: p.K, Weights: p.Weights, Actions: p.Actions[i : i+1]}
		m, _ := Cell(&one, sol.C, s)
		out[i] = ActionEval{
			Action:     i,
			Name:       name,
			Applicable: s&a.Set != 0 && (a.Treatment || s&^a.Set != 0),
			M:          m,
			Optimal:    opt == int32(i),
		}
	}
	return out
}
