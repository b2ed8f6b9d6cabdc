package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// TestPlaneFloor pins the invariant Kernel.Cost's test exit rests on: every
// cell of a solved plane is at least L(X), the sum over X's objects of
// weight times cheapest covering treatment, computed literally from the
// Problem. It covers the four domains the serving benchmark mixes, Random
// in BenchmarkSolveDP's shape, and an inadequate instance, whose sets
// holding the uncovered object must all cost Inf.
func TestPlaneFloor(t *testing.T) {
	inadequate := workload.Random(3, 10, 10, 5)
	uncovered := core.SetOf(9)
	for i, a := range inadequate.Actions {
		if a.Treatment {
			inadequate.Actions[i].Set &^= uncovered
		}
	}
	cases := []struct {
		name       string
		p          *core.Problem
		inadequate bool
	}{
		{"random-serving", workload.Random(1, 12, 12, 6), false},
		{"medical", workload.MedicalDiagnosis(1, 12), false},
		{"faultloc", workload.FaultLocation(1, 12, 4), false},
		{"sysbio", workload.SystematicBiology(1, 12), false},
		{"random", workload.Random(2, 12, 16, 16), false},
		{"inadequate", inadequate, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sol, err := core.Solve(tc.p)
			if err != nil {
				t.Fatal(err)
			}
			defer sol.Release()
			for x, c := range sol.C {
				if l := core.RefFloor(tc.p, core.Set(x)); c < l {
					t.Fatalf("C(%b) = %d, below L = %d", x, c, l)
				}
				if tc.inadequate && core.Set(x)&uncovered != 0 && c != core.Inf {
					t.Fatalf("C(%b) = %d holds the uncovered object, want Inf", x, c)
				}
			}
			if tc.inadequate == (sol.Cost != core.Inf) {
				t.Fatalf("C(U) = %d, inadequate = %v", sol.Cost, tc.inadequate)
			}
		})
	}
}
