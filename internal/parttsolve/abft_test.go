package parttsolve

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/certify"
	"repro/internal/core"
)

// TestABFTHealthyBitIdentical: with Verify on and a healthy machine, every
// engine still matches the sequential DP bit for bit and performs no repairs.
func TestABFTHealthyBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, kind := range []EngineKind{Lockstep, Goroutine, CCC} {
		for trial := 0; trial < 3; trial++ {
			p := randomProblem(rng, 4, 3+rng.Intn(3))
			want, err := core.Solve(p)
			if err != nil {
				t.Fatal(err)
			}
			res, err := SolveOpts(context.Background(), p, kind, Options{Verify: true})
			if err != nil {
				t.Fatalf("%v: %v", kind, err)
			}
			if res.Cost != want.Cost {
				t.Fatalf("%v: cost %d, want %d", kind, res.Cost, want.Cost)
			}
			if res.Repairs != 0 {
				t.Fatalf("%v: healthy run performed %d repairs", kind, res.Repairs)
			}
			for s := range want.C {
				if res.C[s] != want.C[s] || res.Choice[s] != lowestArgmin(p, want.C, s) {
					t.Fatalf("%v: plane mismatch at %v", kind, core.Set(s))
				}
			}
		}
	}
}

// TestABFTRepairsTransientCorruption: a one-shot silent corruption of the
// machine state is detected at the next barrier, repaired from the mirror,
// and the solve completes with the right answer and Repairs = 1.
func TestABFTRepairsTransientCorruption(t *testing.T) {
	p := randomProblem(rand.New(rand.NewSource(72)), 4, 5)
	want, err := core.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	for name, corrupt := range map[string]func(c *Cell){
		"cost-plane": func(c *Cell) { c.M ^= 0xff },
		"argmin":     func(c *Cell) { c.MI ^= 1 },
		"psum":       func(c *Cell) { c.PS += 3 },
		"mark":       func(c *Cell) { c.Mark = !c.Mark },
	} {
		fired := false
		abftCorruptHook = func(round int, state []Cell) {
			if round == 2 && !fired {
				fired = true
				corrupt(&state[len(state)/2])
			}
		}
		res, err := SolveOpts(context.Background(), p, Lockstep, Options{Verify: true})
		abftCorruptHook = nil
		if err != nil {
			t.Fatalf("%s: transient corruption was not repaired: %v", name, err)
		}
		if !fired {
			t.Fatalf("%s: corruption hook never fired", name)
		}
		if res.Cost != want.Cost {
			t.Fatalf("%s: cost %d, want %d", name, res.Cost, want.Cost)
		}
		if res.Repairs != 1 {
			t.Fatalf("%s: Repairs = %d, want 1", name, res.Repairs)
		}
		for s := range want.C {
			if res.C[s] != want.C[s] || res.Choice[s] != lowestArgmin(p, want.C, s) {
				t.Fatalf("%s: plane mismatch at %v after repair", name, core.Set(s))
			}
		}
	}
}

// TestABFTRefusesPersistentCorruption: a fault that re-asserts itself during
// the repair re-run must end the solve with a typed certify.LevelError — a
// wrong answer is never returned.
func TestABFTRefusesPersistentCorruption(t *testing.T) {
	p := randomProblem(rand.New(rand.NewSource(73)), 4, 5)
	abftCorruptHook = func(round int, state []Cell) {
		if round == 2 {
			state[len(state)/2].M ^= 0xff // every attempt, including the re-run
		}
	}
	defer func() { abftCorruptHook = nil }()
	_, err := SolveOpts(context.Background(), p, Lockstep, Options{Verify: true})
	var lerr *certify.LevelError
	if !errors.As(err, &lerr) {
		t.Fatalf("err = %v, want *certify.LevelError", err)
	}
	if lerr.Engine != "lockstep" || lerr.Level != 2 {
		t.Fatalf("LevelError = %+v, want engine lockstep at level 2", lerr)
	}
	if len(lerr.Report.Violations) == 0 {
		t.Fatal("LevelError carries no violations")
	}
}

// TestABFTUnverifiedRunsIgnoreHook: without Verify, the corruption goes
// undetected (that is the threat the layer exists for) — pinning that the
// hook itself doesn't alter control flow.
func TestABFTUnverifiedCorruptionEscapes(t *testing.T) {
	p := randomProblem(rand.New(rand.NewSource(74)), 4, 5)
	want, err := core.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	logN := PaddedLogN(len(p.Actions))
	abftCorruptHook = func(round int, state []Cell) {
		if round == p.K {
			// Corrupt the C(U) representative cell after the last round.
			state[(len(state)-1)>>uint(logN)<<uint(logN)].M = 1
		}
	}
	defer func() { abftCorruptHook = nil }()
	res, err := SolveOpts(context.Background(), p, Lockstep, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost == want.Cost {
		t.Skip("corruption did not change the answer on this instance")
	}
	// The wrong answer sailed through: exactly what serve-side certification
	// and Options.Verify exist to stop.
}
