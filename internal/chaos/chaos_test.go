package chaos_test

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
)

func genProblem(seed int64, k, nActions int) *core.Problem {
	rng := rand.New(rand.NewSource(seed))
	p := &core.Problem{K: k, Weights: make([]uint64, k)}
	for j := range p.Weights {
		p.Weights[j] = uint64(rng.Intn(5) + 1)
	}
	u := uint32(core.Universe(k))
	for i := 0; i < nActions; i++ {
		p.Actions = append(p.Actions, core.Action{
			Set:       core.Set(rng.Intn(int(u))+1) & core.Set(u),
			Cost:      uint64(rng.Intn(8) + 1),
			Treatment: rng.Intn(2) == 0,
		})
	}
	p.Actions = append(p.Actions, core.Action{Set: core.Universe(k), Cost: 20, Treatment: true})
	return p
}

// TestKillWithoutCheckpointer: Kill(n) fails an exact solve at the hook's
// n-th report, on one range and on several, and never fires past the K−1
// reports a solve makes. Nothing is kept from the killed solve, and a fresh
// solve afterwards is simply correct.
func TestKillWithoutCheckpointer(t *testing.T) {
	ctx := context.Background()
	p := genProblem(7, 5, 4)
	want, err := core.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, ranges := range []int{1, 3} {
		for n := 1; n < p.K; n++ {
			sol, err := core.SolveParallelPooledCtx(ctx, p, ranges, nil, nil, chaos.Kill(n))
			if !errors.Is(err, chaos.ErrKilled) || sol != nil {
				t.Fatalf("ranges %d: Kill(%d) not delivered: %v", ranges, n, err)
			}
		}
		sol, err := core.SolveParallelPooledCtx(ctx, p, ranges, nil, nil, chaos.Kill(p.K))
		if err != nil {
			t.Fatalf("ranges %d: Kill(K) fired: %v", ranges, err)
		}
		if sol.Cost != want.Cost {
			t.Fatalf("ranges %d: cost %d, want %d", ranges, sol.Cost, want.Cost)
		}
	}
	sol, err := core.SolveCtx(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(sol.C, want.C) {
		t.Fatal("fresh solve after a kill differs from Solve")
	}
}

func TestFailFirstAndPanicFirst(t *testing.T) {
	boom := errors.New("boom")
	hook := chaos.FailFirst("bvm", 2, boom)
	if err := hook("seq"); err != nil {
		t.Fatalf("wrong engine failed: %v", err)
	}
	if err := hook("bvm"); !errors.Is(err, boom) {
		t.Fatal("first bvm call did not fail")
	}
	if err := hook("bvm"); !errors.Is(err, boom) {
		t.Fatal("second bvm call did not fail")
	}
	if err := hook("bvm"); err != nil {
		t.Fatalf("bvm did not heal: %v", err)
	}

	ph := chaos.PanicFirst("seq", 1, "kaboom")
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("first seq call did not panic")
			}
		}()
		_ = ph("seq")
	}()
	if err := ph("seq"); err != nil {
		t.Fatalf("seq did not heal: %v", err)
	}
}
