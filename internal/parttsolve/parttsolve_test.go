package parttsolve

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func randomProblem(rng *rand.Rand, k, nActions int) *core.Problem {
	p := &core.Problem{K: k, Weights: make([]uint64, k)}
	for j := range p.Weights {
		p.Weights[j] = uint64(rng.Intn(20) + 1)
	}
	u := uint32(core.Universe(k))
	for i := 0; i < nActions; i++ {
		p.Actions = append(p.Actions, core.Action{
			Set:       core.Set(rng.Intn(int(u))+1) & core.Set(u),
			Cost:      uint64(rng.Intn(30) + 1),
			Treatment: rng.Intn(2) == 0,
		})
	}
	p.Actions = append(p.Actions, core.Action{Set: core.Universe(k), Cost: 400, Treatment: true})
	return p
}

// TestMatchesSequentialDP is E13's heart: the parallel C plane must equal the
// sequential DP's C array exactly, for every subset, across many random
// instances.
func TestMatchesSequentialDP(t *testing.T) {
	old := debugChecks
	debugChecks = true
	defer func() { debugChecks = old }()

	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		k := rng.Intn(5) + 2 // 2..6
		p := randomProblem(rng, k, rng.Intn(10)+2)
		seq, err := core.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		par, err := Solve(p, Lockstep)
		if err != nil {
			t.Fatal(err)
		}
		if par.Cost != seq.Cost {
			t.Fatalf("trial %d: parallel C(U)=%d, sequential %d", trial, par.Cost, seq.Cost)
		}
		for s := range par.C {
			if par.C[s] != seq.C[s] {
				t.Fatalf("trial %d: C[%b] parallel %d sequential %d", trial, s, par.C[s], seq.C[s])
			}
		}
	}
}

func TestGoroutineEngineMatchesLockstep(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		p := randomProblem(rng, rng.Intn(3)+2, rng.Intn(6)+2)
		lock, err := Solve(p, Lockstep)
		if err != nil {
			t.Fatal(err)
		}
		gor, err := Solve(p, Goroutine)
		if err != nil {
			t.Fatal(err)
		}
		for s := range lock.C {
			if lock.C[s] != gor.C[s] {
				t.Fatalf("trial %d: engines disagree at S=%b: %d vs %d", trial, s, lock.C[s], gor.C[s])
			}
		}
	}
}

func TestCCCEngineMatchesLockstep(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 6; trial++ {
		k := rng.Intn(3) + 2 // 2..4: machines of 64 or 2048 PEs
		p := randomProblem(rng, k, rng.Intn(4)+2)
		lock, err := Solve(p, Lockstep)
		if err != nil {
			t.Fatal(err)
		}
		cc, err := Solve(p, CCC)
		if err != nil {
			t.Fatal(err)
		}
		if cc.Cost != lock.Cost {
			t.Fatalf("trial %d: CCC %d vs lockstep %d", trial, cc.Cost, lock.Cost)
		}
		for s := range lock.C {
			if lock.C[s] != cc.C[s] {
				t.Fatalf("trial %d: C[%b] mismatch", trial, s)
			}
		}
		if cc.CCCSteps == 0 {
			t.Fatal("CCC engine reported no CCC steps")
		}
		// The 3-link machine must pay more steps than the hypercube count.
		if cc.CCCSteps <= cc.DimSteps {
			t.Fatalf("CCC steps %d not above hypercube dim steps %d", cc.CCCSteps, cc.DimSteps)
		}
	}
}

func TestInadequateInstance(t *testing.T) {
	p := &core.Problem{
		K:       3,
		Weights: []uint64{1, 1, 1},
		Actions: []core.Action{
			{Set: core.SetOf(0, 1), Cost: 1, Treatment: true},
			{Set: core.SetOf(0, 2), Cost: 1},
		},
	}
	res, err := Solve(p, Lockstep)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != core.Inf {
		t.Fatalf("inadequate instance cost %d, want Inf", res.Cost)
	}
}

func TestHandComputedInstance(t *testing.T) {
	p := &core.Problem{
		K:       2,
		Weights: []uint64{1, 1},
		Actions: []core.Action{
			{Name: "treat-both", Set: core.SetOf(0, 1), Cost: 3, Treatment: true},
			{Name: "treat-0", Set: core.SetOf(0), Cost: 1, Treatment: true},
			{Name: "treat-1", Set: core.SetOf(1), Cost: 1, Treatment: true},
			{Name: "test-0", Set: core.SetOf(0), Cost: 1},
		},
	}
	res, err := Solve(p, Lockstep)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 3 {
		t.Fatalf("C(U) = %d, want 3", res.Cost)
	}
}

func TestStepCountFormula(t *testing.T) {
	// E8: measured dimension steps must equal the closed form
	// k + k(2k + logN), the paper's O(k(k + log N)) parallel time.
	rng := rand.New(rand.NewSource(4))
	for _, k := range []int{2, 4, 6} {
		for _, n := range []int{2, 5, 9} {
			p := randomProblem(rng, k, n-1) // +1 catch-all = n actions
			res, err := Solve(p, Lockstep)
			if err != nil {
				t.Fatal(err)
			}
			logN := PaddedLogN(len(p.Actions))
			if want := ExpectedDimSteps(k, logN); res.DimSteps != want {
				t.Errorf("k=%d n=%d: DimSteps=%d, want %d", k, n, res.DimSteps, want)
			}
			if res.LogN != logN {
				t.Errorf("k=%d n=%d: LogN=%d, want %d", k, n, res.LogN, logN)
			}
			if res.PEs != 1<<uint(k+logN) {
				t.Errorf("k=%d n=%d: PEs=%d", k, n, res.PEs)
			}
		}
	}
}

func TestPaddedLogN(t *testing.T) {
	cases := map[int]int{1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4}
	for n, want := range cases {
		if got := PaddedLogN(n); got != want {
			t.Errorf("PaddedLogN(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestEngineKindString(t *testing.T) {
	if Lockstep.String() != "lockstep" || Goroutine.String() != "goroutine" || CCC.String() != "ccc" {
		t.Error("EngineKind strings wrong")
	}
}

func TestValidateErrorPropagates(t *testing.T) {
	p := &core.Problem{K: 0}
	if _, err := Solve(p, Lockstep); err == nil {
		t.Fatal("invalid problem accepted")
	}
}

func TestTooLargeRejected(t *testing.T) {
	k := 24
	p := &core.Problem{K: k, Weights: make([]uint64, k)}
	for j := range p.Weights {
		p.Weights[j] = 1
	}
	for i := 0; i < 16; i++ {
		p.Actions = append(p.Actions, core.Action{Set: core.Universe(k), Cost: 1, Treatment: true})
	}
	if _, err := Solve(p, Lockstep); err == nil {
		t.Fatal("2^28-PE machine accepted")
	}
}

// Property: for adequate random instances, the parallel cost equals the
// sequential optimum and is bounded above by the greedy tree cost.
func TestPropertyParallelOptimality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng, 3, 4)
		seq, err := core.Solve(p)
		if err != nil {
			return false
		}
		par, err := Solve(p, Lockstep)
		if err != nil {
			return false
		}
		g, err := core.GreedyCost(p)
		if err != nil {
			return false
		}
		return par.Cost == seq.Cost && par.Cost <= g
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestResultSteps(t *testing.T) {
	p := randomProblem(rand.New(rand.NewSource(5)), 3, 3)
	res, err := Solve(p, Lockstep)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps() != res.DimSteps+res.LocalSteps {
		t.Fatal("Steps() inconsistent")
	}
	if res.LocalSteps == 0 {
		t.Fatal("no local steps counted")
	}
}

func BenchmarkParallelTTLockstepK8(b *testing.B) {
	p := randomProblem(rand.New(rand.NewSource(6)), 8, 15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(p, Lockstep); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParallelTTGoroutineK6(b *testing.B) {
	p := randomProblem(rand.New(rand.NewSource(7)), 6, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(p, Goroutine); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParallelTTCCCK7(b *testing.B) {
	p := randomProblem(rand.New(rand.NewSource(8)), 7, 15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(p, CCC); err != nil {
			b.Fatal(err)
		}
	}
}

// TestChoicePlaneMatchesDP: the machine's argmin plane equals the sequential
// DP's choices exactly, and a procedure tree built purely from the parallel
// run's output achieves C(U).
func TestChoicePlaneMatchesDP(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 25; trial++ {
		k := rng.Intn(4) + 2
		p := randomProblem(rng, k, rng.Intn(8)+2)
		seq, err := core.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		par, err := Solve(p, Lockstep)
		if err != nil {
			t.Fatal(err)
		}
		for s := range seq.C {
			if want := lowestArgmin(p, seq.C, s); par.Choice[s] != want {
				t.Fatalf("trial %d: Choice[%b] = %d, want %d", trial, s, par.Choice[s], lowestArgmin(p, seq.C, s))
			}
		}
		if par.Cost == core.Inf {
			continue
		}
		tree, err := core.TreeFromCosts(p, par.C)
		if err != nil {
			t.Fatalf("trial %d: tree from parallel output: %v", trial, err)
		}
		got, err := core.TreeCost(p, tree)
		if err != nil {
			t.Fatal(err)
		}
		if got != par.Cost {
			t.Fatalf("trial %d: parallel-built tree costs %d, want %d", trial, got, par.Cost)
		}
	}
}

// lowestArgmin is the sequential reference argmin at s: the lowest-index
// minimizer of the recurrence over the finished plane c, -1 for the empty
// set or an infinite cost.
func lowestArgmin(p *core.Problem, c []uint64, s int) int32 {
	kn, err := core.Compile(p)
	if err != nil {
		panic(err)
	}
	_, ch := kn.Cell(c, core.Set(s))
	return ch
}
