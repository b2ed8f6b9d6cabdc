package core

import "testing"

// FuzzSolveAgreement drives the three independent solvers (bottom-up DP,
// memoized recursion, exhaustive enumeration) plus tree extraction with
// fuzzer-shaped instances and requires exact agreement everywhere.
// Instances reach k = 6 and 8 actions, weights and costs may be zero, and
// an action may repeat the previous one's cost, so the sweep's cost-ordered
// early exit meets ties, zero products and long sorted runs end to end.
func FuzzSolveAgreement(f *testing.F) {
	// k, then k weights, then the count of fuzzed actions (each set, kind,
	// cost), then the universal treatment's cost.
	f.Add([]byte{0, 7, 3, 1, 0b01, 0, 1, 0b10, 1, 2, 90})
	f.Add([]byte{1, 1, 9, 1, 1, 0b101, 0, 5, 0b011, 1, 2, 90})
	f.Add([]byte{2, 2, 2, 2, 2, 1, 0b1111, 0, 0, 0b0001, 1, 4, 90})
	f.Add([]byte{4, 3, 0, 5, 4, 3, 1, 6,
		0b000111, 0, 2, 0b111000, 0x40, 0, 0b010101, 0, 3, 0b000001, 0x81, 9,
		0b100000, 0x81, 9, 0b001100, 0x40, 0, 0b110011, 0x80, 7, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		k := int(b.byte())%5 + 2 // 2..6
		u := Universe(k)
		p := &Problem{K: k, Weights: make([]uint64, k)}
		for j := range p.Weights {
			p.Weights[j] = uint64(b.byte()) % 20
		}
		n := int(b.byte())%7 + 1 // plus the universal treatment: 2..8 actions
		for i := 0; i < n; i++ {
			set, kind, cost := b.byte(), b.byte(), b.byte()
			a := Action{Set: Set(set) & u, Treatment: kind&1 != 0, Cost: uint64(cost) % 40}
			if a.Set == 0 {
				a.Set = SetOf(i % k)
			}
			switch kind >> 6 {
			case 1:
				a.Cost = 0
			case 2: // repeat the previous action's cost
				if i > 0 {
					a.Cost = p.Actions[i-1].Cost
				}
			}
			p.Actions = append(p.Actions, a)
		}
		p.Actions = append(p.Actions, Action{Name: "all", Set: u, Cost: uint64(b.byte()) % 100, Treatment: true})
		sol, err := Solve(p)
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		memo, err := SolveMemo(p)
		if err != nil {
			t.Fatalf("SolveMemo: %v", err)
		}
		if memo != sol.Cost {
			t.Fatalf("Solve %d != SolveMemo %d", sol.Cost, memo)
		}
		exh, err := SolveExhaustive(p)
		if err != nil {
			t.Fatalf("SolveExhaustive: %v", err)
		}
		if exh != sol.Cost {
			t.Fatalf("Solve %d != SolveExhaustive %d", sol.Cost, exh)
		}
		if !sol.Adequate() {
			t.Fatal("instance with universal treatment reported inadequate")
		}
		tree, err := sol.Tree(p)
		if err != nil {
			t.Fatalf("Tree: %v", err)
		}
		tc, err := TreeCost(p, tree)
		if err != nil {
			t.Fatalf("TreeCost: %v", err)
		}
		if tc != sol.Cost {
			t.Fatalf("TreeCost %d != C(U) %d", tc, sol.Cost)
		}
	})
}
