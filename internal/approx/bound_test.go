package approx

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// TestLowerBoundPerSet checks the per-set soundness branch-and-bound
// pruning rests on: on TestDifferentialExhaustive's family (the same seed,
// k = 2..10, inadequate instances included), st.lower(S) never exceeds the
// exact C(S) at any nonempty S. TestDifferentialExhaustive compares only
// lower(U) with certify.LowerBound.
func TestLowerBoundPerSet(t *testing.T) {
	rng := rand.New(rand.NewSource(1986))
	var problems []*core.Problem
	for k := 2; k <= 10; k++ {
		for trial := 0; trial < 12; trial++ {
			problems = append(problems, randomProblem(rng, k, 2+rng.Intn(2*k), trial%3 != 0))
		}
		problems = append(problems,
			workload.Random(int64(k), k, k, k),
			workload.MedicalDiagnosis(int64(k), k),
			workload.SystematicBiology(int64(k), k),
			workload.BinaryTestingUniform(k, 7),
		)
	}
	for _, p := range problems {
		sol, err := core.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		st, err := newState(p)
		if err != nil {
			t.Fatal(err)
		}
		for s := 1; s < len(sol.C); s++ {
			if lb := st.lower(core.Set(s)); lb > sol.C[s] {
				t.Fatalf("k=%d: lower(%b) = %d exceeds C = %d", p.K, s, lb, sol.C[s])
			}
		}
		sol.Release()
	}
}
