package bvmtt

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/bvm"
	"repro/internal/ccc"
	"repro/internal/certify"
	"repro/internal/core"
)

// testGeometry recomputes the machine geometry and register layout solve()
// will pick for p, so tests can aim pokes and fault injections at specific
// planes.
func testGeometry(t *testing.T, p *core.Problem) (lay layout, width, q, logN int) {
	t.Helper()
	width = SuggestWidth(p)
	minLogN := 1
	for 1<<uint(minLogN) < len(p.Actions) {
		minLogN++
	}
	top, err := ccc.ForPEs(1 << uint(p.K+minLogN))
	if err != nil {
		t.Fatal(err)
	}
	q = top.AddrBits
	logN = q - p.K
	lay, err = planLayout(q, p.K, width)
	if err != nil {
		t.Fatal(err)
	}
	return lay, width, q, logN
}

// TestBVMABFTHealthyBitIdentical: with Verify on and a healthy machine the
// BVM engine still matches the sequential DP bit for bit, with no repairs.
func TestBVMABFTHealthyBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 3; trial++ {
		p := randomProblem(rng, 4, 3+rng.Intn(3))
		want, err := core.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := SolveOpts(context.Background(), p, Options{Verify: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Cost != want.Cost {
			t.Fatalf("cost %d, want %d", res.Cost, want.Cost)
		}
		if res.Repairs != 0 {
			t.Fatalf("healthy run performed %d repairs", res.Repairs)
		}
		for s := range want.C {
			if res.C[s] != want.C[s] {
				t.Fatalf("C plane mismatch at %v", core.Set(s))
			}
		}
	}
}

// TestBVMABFTRepairsTransientCorruption: a one-shot silent flip of a machine
// word is detected at the next barrier, the machine is rebuilt by host pokes,
// and the solve completes with the right answer and Repairs = 1.
func TestBVMABFTRepairsTransientCorruption(t *testing.T) {
	p := randomProblem(rand.New(rand.NewSource(82)), 4, 5)
	want, err := core.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	lay, width, _, _ := testGeometry(t, p)
	for name, corrupt := range map[string]func(m *bvm.Machine){
		// PE 0 is (S=∅, i=0): its M word is frozen at 0 from round 1 on, so
		// this lands in the checksummed region.
		"frozen-m-plane": func(m *bvm.Machine) { m.SetUint(lay.m.Base, width, 0, 1) },
		"ps-plane":       func(m *bvm.Machine) { m.SetUint(lay.ps.Base, width, 3, m.Uint(lay.ps.Base, width, 3)^1) },
		"tp-plane":       func(m *bvm.Machine) { m.SetUint(lay.tp.Base, width, 5, m.Uint(lay.tp.Base, width, 5)^1) },
	} {
		fired := false
		abftCorruptHook = func(round int, m *bvm.Machine) {
			if round == 2 && !fired {
				fired = true
				corrupt(m)
			}
		}
		res, err := SolveOpts(context.Background(), p, Options{Verify: true})
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
	}
}

// TestBVMABFTRefusesPersistentCorruption: corruption that re-asserts itself
// on the repair re-run ends the solve with a typed certify.LevelError.
func TestBVMABFTRefusesPersistentCorruption(t *testing.T) {
	p := randomProblem(rand.New(rand.NewSource(83)), 4, 5)
	lay, width, _, _ := testGeometry(t, p)
	abftCorruptHook = func(round int, m *bvm.Machine) {
		if round == 2 {
			m.SetUint(lay.m.Base, width, 0, 1) // every attempt, including the re-run
		}
	}
	defer func() { abftCorruptHook = nil }()
	_, err := SolveOpts(context.Background(), p, Options{Verify: true})
	var lerr *certify.LevelError
	if !errors.As(err, &lerr) {
		t.Fatalf("err = %v, want *certify.LevelError", err)
	}
	if lerr.Engine != "bvm" || lerr.Level != 2 {
		t.Fatalf("LevelError = %+v, want engine bvm at level 2", lerr)
	}
	if len(lerr.Report.Violations) == 0 {
		t.Fatal("LevelError carries no violations")
	}
}

// TestBVMABFTFaultKernelsCaught is the chaos acceptance test for the fault
// kernels in internal/bvm/fault.go: a stuck register bit, a stuck E (enable)
// bit, and a broken lateral link are injected into real verified solves via
// the machine hook. The contract is that no fault ever yields a silent wrong
// answer — each solve either refuses with a certify.LevelError or returns the
// bit-identical correct cost plane — and that across the sweep the faults are
// actually detected at least once per kernel (the test would be vacuous if
// every injection happened to be harmless).
func TestBVMABFTFaultKernelsCaught(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	p := randomProblem(rng, 4, 5)
	want, err := core.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	lay, _, _, _ := testGeometry(t, p)
	kernels := map[string]func(m *bvm.Machine, pe int){
		"stuck-bit-m-plane": func(m *bvm.Machine, pe int) {
			m.InjectStuckBit(bvm.R(lay.m.Base), pe, true)
		},
		"stuck-bit-ps-plane": func(m *bvm.Machine, pe int) {
			m.InjectStuckBit(bvm.R(lay.ps.Base+1), pe, true)
		},
		"stuck-e-bit": func(m *bvm.Machine, pe int) {
			m.InjectStuckBit(bvm.E, pe, false)
		},
		"broken-lateral": func(m *bvm.Machine, pe int) {
			m.InjectBrokenLateral(pe)
		},
	}
	for name, inject := range kernels {
		detected := 0
		for _, pe := range []int{1, 7, 42, 100} {
			pe := pe
			restore := SetMachineHook(func(m *bvm.Machine) {
				inject(m, pe%m.N())
			})
			res, err := SolveOpts(context.Background(), p, Options{Verify: true})
			restore()
			if err != nil {
				var lerr *certify.LevelError
				if !errors.As(err, &lerr) {
					t.Fatalf("%s@pe%d: err = %v, want *certify.LevelError", name, pe, err)
				}
				detected++
				continue
			}
			// The solve went through (possibly after repairs): the answer
			// must be exactly right — a wrong answer escaping is the one
			// outcome the layer exists to prevent.
			if res.Cost != want.Cost {
				t.Fatalf("%s@pe%d: silent wrong answer %d, want %d", name, pe, res.Cost, want.Cost)
			}
			for s := range want.C {
				if res.C[s] != want.C[s] {
					t.Fatalf("%s@pe%d: silent C plane corruption at %v", name, pe, core.Set(s))
				}
			}
			if res.Repairs > 0 {
				detected++
			}
		}
		if detected == 0 {
			t.Errorf("%s: no injection was ever detected — test is vacuous", name)
		}
	}
}

// TestBVMABFTUnverifiedFaultEscapes documents the threat: the same stuck-bit
// kernel without Options.Verify flows straight into the answer.
func TestBVMABFTUnverifiedFaultEscapes(t *testing.T) {
	p := randomProblem(rand.New(rand.NewSource(85)), 4, 5)
	want, err := core.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	lay, _, _, _ := testGeometry(t, p)
	restore := SetMachineHook(func(m *bvm.Machine) {
		m.InjectStuckBit(bvm.R(lay.m.Base), m.N()-1, true)
	})
	defer restore()
	res, err := Solve(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost == want.Cost {
		t.Skip("fault did not change the answer on this instance")
	}
	// The wrong answer sailed through: exactly what Options.Verify and the
	// serve-side certifier exist to stop.
}
