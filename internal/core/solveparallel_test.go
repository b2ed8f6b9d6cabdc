package core

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// shippedMinRangeEvals is the production range floor. TestMain lowers the
// floor to one evaluation for the package's tests, so that the small
// instances they solve still cut every level into several ranges and cover
// the pool barrier; TestSweepRangeRule runs under the shipped value.
var shippedMinRangeEvals = minRangeEvals

func TestMain(m *testing.M) {
	minRangeEvals = 1
	os.Exit(m.Run())
}

// levelRanges solves p with at most `workers` ranges per level under the
// shipped floor and returns how many ranges each level ran.
func levelRanges(t *testing.T, workers int, p *Problem) []int64 {
	t.Helper()
	counts := make([]atomic.Int64, p.K+1)
	sweepRangeHook = func(start Set) { counts[start.Size()].Add(1) }
	minRangeEvals = shippedMinRangeEvals
	defer func() { sweepRangeHook, minRangeEvals = nil, 1 }()
	if _, err := SolveParallelPooledCtx(context.Background(), p, workers, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	out := make([]int64, len(counts))
	for i := range counts {
		out[i] = counts[i].Load()
	}
	return out
}

// TestSweepRangeRule pins the range floor: a level gets one range per
// minRangeEvals of (set, action) evaluations, capped at the requested width,
// so small levels and small K run inline while the wide middle levels of a
// large instance split.
func TestSweepRangeRule(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	// K=12 with 30 actions: level 1 is 12×30 = 360 evaluations, one range;
	// level 6 is 924×30 = 27720, six floors' worth, capped at 4 ranges.
	big := randomProblem(rng, 12, 29)
	got := levelRanges(t, 4, big)
	if got[1] != 1 || got[12] != 1 {
		t.Errorf("K=12 levels 1 and 12 ran %d and %d ranges, want 1 each", got[1], got[12])
	}
	if got[6] != 4 {
		t.Errorf("K=12 level 6 ran %d ranges, want 4", got[6])
	}
	// K=6: no level reaches the floor, so every level is one range.
	small := randomProblem(rng, 6, 29)
	for level, n := range levelRanges(t, 4, small)[1:] {
		if n != 1 {
			t.Errorf("K=6 level %d ran %d ranges, want 1", level+1, n)
		}
	}
}

// TestSolveBatchShards pins the shard rule: a group of G instances on
// `workers` ranges runs min(workers, G) shards, each instance on
// max(1, workers/G) ranges.
func TestSolveBatchShards(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	base := randomProblem(rng, 8, 6)
	group := func(G int) []*Problem {
		ps := []*Problem{base}
		for len(ps) < G {
			ps = append(ps, repriced(rng, base))
		}
		return ps
	}
	// G=4 on 2 workers: four one-range sweeps, whose hook fires once each,
	// with {0}, and no level driver.
	var ones, others atomic.Int64
	sweepRangeHook = func(start Set) {
		if start == 1 {
			ones.Add(1)
		} else {
			others.Add(1)
		}
	}
	defer func() { sweepRangeHook = nil }()
	if _, err := SolveBatchCtx(context.Background(), group(4), 2, nil); err != nil {
		t.Fatal(err)
	}
	if ones.Load() != 4 || others.Load() != 0 {
		t.Errorf("G=4 at 2 workers: %d one-range sweeps and %d other range starts, want 4 and 0",
			ones.Load(), others.Load())
	}
	// G=2 on 4 workers: each instance gets 2 ranges, so under the package
	// tests' floor of one evaluation every level of both instances splits
	// in two (level 8 holds one set and stays whole).
	counts := make([]atomic.Int64, base.K+1)
	sweepRangeHook = func(start Set) { counts[start.Size()].Add(1) }
	if _, err := SolveBatchCtx(context.Background(), group(2), 4, nil); err != nil {
		t.Fatal(err)
	}
	for level := 1; level < base.K; level++ {
		if n := counts[level].Load(); n != 4 {
			t.Errorf("G=2 at 4 workers: level %d ran %d ranges, want 2 per instance", level, n)
		}
	}
	if n := counts[base.K].Load(); n != 2 {
		t.Errorf("G=2 at 4 workers: level %d ran %d ranges, want 1 per instance", base.K, n)
	}
}

func TestSolveParallelMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 30; trial++ {
		k := rng.Intn(7) + 2 // 2..8
		p := randomProblem(rng, k, rng.Intn(10)+2)
		seq, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3, 0} {
			par, err := SolveParallelPooledCtx(context.Background(), p, workers, nil, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if par.Cost != seq.Cost || par.Ops != seq.Ops {
				t.Fatalf("trial %d workers %d: cost/ops %d/%d vs %d/%d",
					trial, workers, par.Cost, par.Ops, seq.Cost, seq.Ops)
			}
			for s := range seq.C {
				if par.C[s] != seq.C[s] {
					t.Fatalf("trial %d: C[%b] differs", trial, s)
				}
			}
		}
	}
}

func TestSolveParallelValidates(t *testing.T) {
	if _, err := SolveParallelPooledCtx(context.Background(), &Problem{K: 0}, 2, nil, nil, nil); err == nil {
		t.Fatal("invalid problem accepted")
	}
}

func TestSubsetsOfSize(t *testing.T) {
	got := subsetsOfSize(4, 2)
	want := []Set{0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if len(subsetsOfSize(5, 0)) != 1 {
		t.Fatal("0-subsets wrong")
	}
	if len(subsetsOfSize(5, 5)) != 1 {
		t.Fatal("full subset wrong")
	}
	// Sizes match binomial coefficients across the board.
	binom := func(n, k int) int {
		c := 1
		for i := 0; i < k; i++ {
			c = c * (n - i) / (i + 1)
		}
		return c
	}
	for k := 1; k <= 10; k++ {
		for j := 0; j <= k; j++ {
			if got := len(subsetsOfSize(k, j)); got != binom(k, j) {
				t.Fatalf("|%d-subsets of %d| = %d, want %d", j, k, got, binom(k, j))
			}
		}
	}
}

// gosperNext is the reference successor: the next higher number with the same
// popcount.
func gosperNext(v uint32) uint32 {
	c := v & -v
	r := v + c
	return (r^v)>>2/c | r
}

// TestNthSubsetMatchesEnumeration cross-checks the combinadic unranking
// against the reference Gosper enumeration at every rank of every level for
// all universes up to k=12 (C(12,6)=924 per level — exhaustive but cheap).
func TestNthSubsetMatchesEnumeration(t *testing.T) {
	for k := 1; k <= 12; k++ {
		for j := 1; j <= k; j++ {
			all := subsetsOfSize(k, j)
			if uint64(len(all)) != binomial(k, j) {
				t.Fatalf("k=%d j=%d: %d subsets, want C=%d", k, j, len(all), binomial(k, j))
			}
			for rank, want := range all {
				if got := nthSubset(uint64(rank), j); Set(got) != want {
					t.Fatalf("nthSubset(%d, %d) = %b, want %b (k=%d)", rank, j, got, want, k)
				}
			}
		}
	}
}

// TestNthSubsetBoundariesMaxK checks the ranks SolveParallel's sharding
// actually lands on at the largest supported universe (k=MaxK, where
// enumeration is impossible): the first rank of each level is the lowest j
// bits, the last is the highest j bits, and unranking agrees with the Gosper
// successor at the seams of evenly split ranges.
func TestNthSubsetBoundariesMaxK(t *testing.T) {
	const k = MaxK
	for j := 1; j <= k; j++ {
		total := binomial(k, j)
		if first, want := nthSubset(0, j), uint32(1)<<uint(j)-1; first != want {
			t.Fatalf("level %d: first = %b, want %b", j, first, want)
		}
		last := nthSubset(total-1, j)
		if want := (uint32(1)<<uint(j) - 1) << uint(k-j); last != want {
			t.Fatalf("level %d: last = %b, want %b", j, last, want)
		}
		// Range starts for a 7-way split, plus the very ends: each start's
		// Gosper successor must be the next rank's unranking. Only ranks with
		// a successor qualify (total-2 underflows when the level is a
		// singleton, so guard before subtracting).
		if total < 2 {
			continue
		}
		chunk := (total + 6) / 7
		for _, rank := range []uint64{0, chunk, 2 * chunk, 3 * chunk, total - 2} {
			if rank >= total-1 {
				continue
			}
			v := nthSubset(rank, j)
			next := nthSubset(rank+1, j)
			if next <= v {
				t.Fatalf("level %d: rank %d -> %d not increasing (%b, %b)", j, rank, rank+1, v, next)
			}
			if g := gosperNext(v); g != next {
				t.Fatalf("level %d rank %d: gosper(%b) = %b, want %b", j, rank, v, g, next)
			}
		}
	}
}

// TestSolveParallelMoreWorkersThanRanges pins the sharding when the pool is
// far wider than any level (workers > C(k, level) for every level): every
// range degenerates to a single subset and the result still matches Solve.
func TestSolveParallelMoreWorkersThanRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	p := randomProblem(rng, 4, 6)
	seq, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	par, err := SolveParallelPooledCtx(context.Background(), p, 64, nil, nil, nil) // C(4,2) = 6 is the widest level
	if err != nil {
		t.Fatal(err)
	}
	if par.Cost != seq.Cost {
		t.Fatalf("cost %d, want %d", par.Cost, seq.Cost)
	}
	for s := range seq.C {
		if par.C[s] != seq.C[s] {
			t.Fatalf("state %b differs", s)
		}
	}
}

// TestSolveParallelCtxCancellation drives a deadline into the middle of a
// large sweep: the parallel engine must return context.DeadlineExceeded promptly
// (the stride polls bail out) rather than finishing the O(N·2^K) scan.
func TestSolveParallelCtxCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	p := randomProblem(rng, 20, 40)

	// Pre-cancelled: rejected before any worker spins up.
	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	if _, err := SolveParallelPooledCtx(pre, p, 4, nil, nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	sol, err := SolveParallelPooledCtx(ctx, p, 4, nil, nil, nil)
	elapsed := time.Since(start)
	if sol != nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got (%v, %v), want DeadlineExceeded", sol, err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, deadline not honored mid-sweep", elapsed)
	}

	// The sequential solver honors the same contract.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel2()
	if _, err := SolveCtx(ctx2, p); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("SolveCtx: %v", err)
	}
}

// TestSolveParallelWorkerPanicPropagates injects a panic into one worker's
// range via the test hook: the pool must shut down and surface the panic as
// an error instead of deadlocking the level barrier (wg.Done was unreachable
// before the recover fix). At one range the hook fires once, at the start of
// the one-range sweep, and the panic must come back as the same error; a
// batch returns a panic in one instance's sweep the same way.
func TestSolveParallelWorkerPanicPropagates(t *testing.T) {
	defer func() { sweepRangeHook = nil }()
	rng := rand.New(rand.NewSource(65))
	p := randomProblem(rng, 10, 8)
	for _, tc := range []struct {
		ranges int
		size   int // popcount of the range start that panics
	}{
		{4, 2}, // blow up somewhere mid-DP, not level 1
		{1, 1}, // the one-range sweep's only hook call
	} {
		var fired atomic.Bool
		sweepRangeHook = func(start Set) {
			if start.Size() == tc.size && fired.CompareAndSwap(false, true) {
				panic("injected fault")
			}
		}
		done := make(chan error, 1)
		go func() {
			_, err := SolveParallelPooledCtx(context.Background(), p, tc.ranges, nil, nil, nil)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "panicked") {
				t.Fatalf("ranges=%d: err = %v, want worker-panicked error", tc.ranges, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("ranges=%d: SolveParallel deadlocked after a worker panic", tc.ranges)
		}
		if !fired.Load() {
			t.Fatalf("ranges=%d: fault never injected", tc.ranges)
		}
	}

	// A batch of two on one worker runs one shard, which sweeps the
	// instances in turn: the hook's second call is the second instance's
	// one-range sweep.
	var calls atomic.Int64
	sweepRangeHook = func(Set) {
		if calls.Add(1) == 2 {
			panic("injected fault")
		}
	}
	_, err := SolveBatchCtx(context.Background(), []*Problem{p, repriced(rng, p)}, 1, nil)
	if err == nil || !strings.Contains(err.Error(), "solver worker panicked") {
		t.Fatalf("batch: err = %v, want worker-panicked error", err)
	}
	if calls.Load() != 2 {
		t.Fatalf("batch: hook ran %d times, want 2", calls.Load())
	}
}

func TestSubsetsOfSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid subset size did not panic")
		}
	}()
	subsetsOfSize(3, 4)
}

func TestStats(t *testing.T) {
	p := &Problem{
		K:       2,
		Weights: []uint64{3, 1},
		Actions: []Action{
			{Name: "probe", Set: SetOf(0), Cost: 1},
			{Name: "fix0", Set: SetOf(0), Cost: 2, Treatment: true},
			{Name: "fix1", Set: SetOf(1), Cost: 2, Treatment: true},
		},
	}
	sol, _ := Solve(p)
	tree, _ := sol.Tree(p)
	st, err := Stats(p, tree)
	if err != nil {
		t.Fatal(err)
	}
	if st.Nodes != tree.CountNodes() || st.Depth != tree.Depth() {
		t.Fatal("shape stats wrong")
	}
	if st.TestNodes+st.TreatmentNodes != st.Nodes {
		t.Fatal("node partition wrong")
	}
	if st.WorstPathLen < 1 || st.WorstPathCost < 2 {
		t.Fatalf("worst path implausible: %+v", st)
	}
	if st.ExpectedActions == 0 {
		t.Fatal("expected actions zero")
	}
	if s := st.String(); s == "" {
		t.Fatal("empty String")
	}
}

func TestStatsErrors(t *testing.T) {
	p := fig1like()
	if _, err := Stats(p, nil); err == nil {
		t.Fatal("nil tree accepted")
	}
	// Tree stranding object 1.
	bad := &Node{Action: 1, Set: Universe(2)}
	if _, err := Stats(p, bad); err == nil {
		t.Fatal("stranding tree accepted")
	}
}

// BenchmarkSolveParallelK16 runs the multi-range level driver: at least two
// ranges per level, so that it does not fall to the one-range sweep on a
// single-CPU host.
func BenchmarkSolveParallelK16(b *testing.B) {
	p := randomProblem(rand.New(rand.NewSource(62)), 16, 32)
	workers := max(2, runtime.GOMAXPROCS(0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveParallelPooledCtx(context.Background(), p, workers, nil, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func TestExplainPricesActions(t *testing.T) {
	p := fig1like()
	sol, _ := Solve(p)
	u := Universe(p.K)
	rows := Explain(p, sol, u)
	if len(rows) != len(p.Actions) {
		t.Fatalf("rows = %d", len(rows))
	}
	best := Inf
	var optimalSeen bool
	for _, r := range rows {
		if r.Applicable && r.M < best {
			best = r.M
		}
		if r.Optimal {
			optimalSeen = true
			if r.M != sol.C[u] {
				t.Fatalf("optimal row M = %d, want C(U) = %d", r.M, sol.C[u])
			}
		}
	}
	if !optimalSeen {
		t.Fatal("no row marked optimal")
	}
	if best != sol.C[u] {
		t.Fatalf("min over rows %d != C(U) %d", best, sol.C[u])
	}
	// A test that cannot split is marked inapplicable with infinite M.
	singleton := SetOf(0)
	for _, r := range Explain(p, sol, singleton) {
		if !p.Actions[r.Action].Treatment && r.Applicable {
			t.Fatalf("test %s applicable on a singleton", r.Name)
		}
	}
}
