package core

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// shippedMinRangeEvals is the production block floor. TestMain lowers the
// floor to one evaluation for the package's tests, so that the small
// instances they solve are still cut into many blocks and cover the pool
// barrier; TestSweepBlockRule and TestSolveParallelShippedFloor run under
// the shipped value.
var shippedMinRangeEvals = minRangeEvals

func TestMain(m *testing.M) {
	minRangeEvals = 1
	os.Exit(m.Run())
}

// blockRuns solves p on `ranges` ranges and returns the sweep's block bits j
// and how many times each of its 2^j blocks ran.
func blockRuns(t *testing.T, ranges int, p *Problem) (int, []int64) {
	t.Helper()
	var mu sync.Mutex
	j := -1
	runs := map[uint64]int64{}
	sweepBlockHook = func(b uint64, bj int) {
		mu.Lock()
		defer mu.Unlock()
		if j >= 0 && bj != j {
			t.Errorf("block %d ran with %d block bits, earlier blocks with %d", b, bj, j)
		}
		j = bj
		runs[b]++
	}
	defer func() { sweepBlockHook = nil }()
	sol, err := SolveParallelPooledCtx(context.Background(), p, ranges, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sol.Release()
	out := make([]int64, 1<<uint(j))
	for b, n := range runs {
		if b >= uint64(len(out)) {
			t.Fatalf("block %d out of range for %d block bits", b, j)
		}
		out[b] = n
	}
	return j, out
}

// TestSweepBlockRule pins how the sweep cuts the lattice: 2^j blocks by the
// top j objects, j the most bits that leave every block minRangeEvals
// (set, action) evaluations and make at most blocksPerRange blocks per
// range, and 0 (one block) on one range or when the floor allows fewer
// than 2. Every block runs once.
func TestSweepBlockRule(t *testing.T) {
	minRangeEvals = shippedMinRangeEvals
	defer func() { minRangeEvals = 1 }()
	for _, tc := range []struct{ k, ranges, actions, j int }{
		{12, 4, 30, 4}, // 30·2^8 = 7680 >= 4096 > 30·2^7
		{12, 1, 30, 0}, // one range: one block
		{6, 4, 30, 0},  // 30·2^6 < 4096: no block reaches the floor
		{15, 2, 40, 6}, // the floor allows 8, 32 blocks per range 6
		{15, 3, 40, 6}, // 2^7 > 32·3
		{15, 4, 40, 7},
		{15, 8, 40, 8},  // the floor and the per-range cap agree
		{20, 16, 40, 9}, // the per-range cap
		{16, 64, 40, 9}, // the floor: 40·2^7 = 5120 >= 4096 > 40·2^6
		{13, 2, 16, 5},  // 16·2^8 = 4096 exactly
		{10, 2, 8, 0},   // 8·2^9 = 4096 allows j = 1, too few to split
		{11, 2, 8, 2},   // the least j that splits
	} {
		if got := blockBits(tc.k, tc.ranges, tc.actions); got != tc.j {
			t.Errorf("blockBits(K=%d, ranges=%d, N=%d) = %d, want %d", tc.k, tc.ranges, tc.actions, got, tc.j)
		}
	}
	rng := rand.New(rand.NewSource(66))
	for _, tc := range []struct{ k, ranges, j int }{{12, 4, 4}, {12, 1, 0}, {6, 4, 0}} {
		p := randomProblem(rng, tc.k, 29) // 30 actions with the catch-all
		j, runs := blockRuns(t, tc.ranges, p)
		if j != tc.j {
			t.Errorf("K=%d at %d ranges: %d block bits, want %d", tc.k, tc.ranges, j, tc.j)
		}
		for b, n := range runs {
			if n != 1 {
				t.Errorf("K=%d at %d ranges: block %d ran %d times, want once", tc.k, tc.ranges, b, n)
			}
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
	// G=4 on 2 workers: four one-range sweeps, each the single block (0, 0).
	var ones, others atomic.Int64
	sweepBlockHook = func(b uint64, j int) {
		if b == 0 && j == 0 {
			ones.Add(1)
		} else {
			others.Add(1)
		}
	}
	defer func() { sweepBlockHook = nil }()
	if _, err := SolveBatchCtx(context.Background(), group(4), 2, nil); err != nil {
		t.Fatal(err)
	}
	if ones.Load() != 4 || others.Load() != 0 {
		t.Errorf("G=4 at 2 workers: %d one-range sweeps and %d other blocks, want 4 and 0",
			ones.Load(), others.Load())
	}
	// G=2 on 4 workers: each instance gets 2 ranges, so under the package
	// tests' floor of one evaluation both are cut into 2·32 blocks, and
	// every block runs once per instance.
	counts := make([]atomic.Int64, 64)
	sweepBlockHook = func(b uint64, j int) {
		if j != 6 {
			t.Errorf("G=2 at 4 workers: %d block bits, want 6", j)
		}
		counts[b].Add(1)
	}
	if _, err := SolveBatchCtx(context.Background(), group(2), 4, nil); err != nil {
		t.Fatal(err)
	}
	for b := range counts {
		if n := counts[b].Load(); n != 2 {
			t.Errorf("G=2 at 4 workers: block %d ran %d times, want once per instance", b, n)
		}
	}
}

// TestSolveParallelShippedFloor compares the block sweep with Solve, bit
// for bit, at K = 11..16 on 2, 3, 4 and 8 ranges under the shipped floor,
// where every instance is cut into 4 to 256 blocks. Run under -race it
// also checks that blocks of one popcount share no cell.
func TestSolveParallelShippedFloor(t *testing.T) {
	minRangeEvals = shippedMinRangeEvals
	defer func() { minRangeEvals = 1 }()
	rng := rand.New(rand.NewSource(68))
	for k := 11; k <= 16; k++ {
		p := randomProblem(rng, k, 8+rng.Intn(32))
		want, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, ranges := range []int{2, 3, 4, 8} {
			if j := blockBits(k, ranges, len(p.Actions)); j < 2 {
				t.Fatalf("K=%d N=%d: %d block bits, want a split", k, len(p.Actions), j)
			}
			got, err := SolveParallelPooledCtx(context.Background(), p, ranges, nil, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			sameSolution(t, want, got, fmt.Sprintf("K=%d ranges=%d", k, ranges))
			got.Release()
		}
		want.Release()
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

// TestSolveParallelWorkerPanicPropagates injects a panic into one block via
// the block-start hook: the sweep must surface it as an error instead of
// deadlocking the level barrier. At one range the hook fires once, for the
// single block, and the panic must come back as the same error; a batch
// returns a panic in one instance's sweep the same way.
func TestSolveParallelWorkerPanicPropagates(t *testing.T) {
	defer func() { sweepBlockHook = nil }()
	rng := rand.New(rand.NewSource(65))
	p := randomProblem(rng, 10, 8)
	for _, tc := range []struct {
		ranges int
		size   int // popcount of the block that panics
	}{
		{4, 2}, // blow up on a pool worker mid-sweep, not in block 0
		{1, 0}, // the one-range sweep's only block
	} {
		var fired atomic.Bool
		sweepBlockHook = func(b uint64, _ int) {
			if bits.OnesCount64(b) == tc.size && fired.CompareAndSwap(false, true) {
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
	// only block.
	var calls atomic.Int64
	sweepBlockHook = func(uint64, int) {
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
