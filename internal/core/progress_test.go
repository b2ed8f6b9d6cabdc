package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
)

// report is one call of a Progress hook.
type report struct{ done, total uint64 }

// recordProgress returns a hook that appends every report to *got and fails
// with errHook at its failAt-th call (1-based; 0 never fails).
func recordProgress(got *[]report, failAt int) Progress {
	return func(done, total uint64) error {
		*got = append(*got, report{done, total})
		if len(*got) == failAt {
			return errHook
		}
		return nil
	}
}

var errHook = errors.New("progress hook failed")

func sameSolution(t *testing.T, want, got *Solution, label string) {
	t.Helper()
	if got.Cost != want.Cost {
		t.Fatalf("%s: cost %d, want %d", label, got.Cost, want.Cost)
	}
	for s := range want.C {
		if got.C[s] != want.C[s] {
			t.Fatalf("%s: C[%d] = %d, want %d", label, s, got.C[s], want.C[s])
		}
	}
	if got.Ops != want.Ops {
		t.Fatalf("%s: Ops = %d, want %d", label, got.Ops, want.Ops)
	}
}

// TestSolveCheckpointedMatchesSolve: SolveCheckpointedCtx, with or without a
// progress hook, returns exactly Solve's answer.
func TestSolveCheckpointedMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		k := rng.Intn(6) + 2
		p := randomProblem(rng, k, rng.Intn(6)+2)
		want, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := SolveCheckpointedCtx(context.Background(), p, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameSolution(t, want, got, "no hook")
		var reports []report
		got, err = SolveCheckpointedCtx(context.Background(), p, nil, recordProgress(&reports, 0))
		if err != nil {
			t.Fatal(err)
		}
		sameSolution(t, want, got, "with a hook")
	}
}

// TestProgressReports pins what the hook sees: K−1 reports whatever the
// range count, done strictly increasing, total always 2^K−1. A sweep cut
// into 2^j blocks reports done = 2^i−1 for i = 1..K−j while block 0 fills,
// then (Σ_{0≤i≤p} C(j,i))·2^(K−j) − 1 at the barrier after the blocks of
// popcount p, for p = 1..j−1. One range is j = 0: done = 2^i−1 for
// i = 1..K−1, the numeric-order reports.
func TestProgressReports(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, tc := range []struct {
		k, ranges int
		shipped   bool // under the shipped block floor
		j         int
	}{
		{1, 2, false, 0}, // one object: too few to split
		{2, 2, false, 2}, // blocks of one set each
		{6, 1, false, 0}, // one range
		{6, 4, false, 6},
		{9, 2, false, 6}, // 32 blocks per range: blocks of eight sets
		{9, 4, false, 7},
		{12, 1, true, 0}, // one range
		{12, 2, true, 3}, // 8 actions: blocks of 512 sets
		{14, 3, true, 5},
		{16, 2, true, 6},
	} {
		p := randomProblem(rng, tc.k, 7)
		all := uint64(1)<<uint(tc.k) - 1
		low := tc.k - tc.j
		var want []report
		for i := 1; i <= low && i < tc.k; i++ {
			want = append(want, report{uint64(1)<<uint(i) - 1, all})
		}
		blocks := uint64(1)
		for q := 1; q < tc.j; q++ {
			blocks += binomial(tc.j, q)
			want = append(want, report{blocks<<uint(low) - 1, all})
		}
		if tc.shipped {
			minRangeEvals = shippedMinRangeEvals
		}
		var got []report
		sol, err := SolveParallelPooledCtx(context.Background(), p, tc.ranges, nil, nil, recordProgress(&got, 0))
		minRangeEvals = 1
		if err != nil {
			t.Fatal(err)
		}
		sol.Release()
		if len(want) != tc.k-1 || len(got) != tc.k-1 {
			t.Fatalf("k=%d ranges=%d: %d reports, want %d (%d expected)", tc.k, tc.ranges, len(got), tc.k-1, len(want))
		}
		for i, r := range got {
			if r != want[i] {
				t.Fatalf("k=%d ranges=%d: report %d is %d/%d, want %d/%d",
					tc.k, tc.ranges, i, r.done, r.total, want[i].done, want[i].total)
			}
			if i > 0 && r.done <= got[i-1].done {
				t.Fatalf("k=%d ranges=%d: done fell from %d to %d", tc.k, tc.ranges, got[i-1].done, r.done)
			}
		}
	}
}

// TestCheckpointerErrorAbortsSolve: an error from the progress hook stops
// the sweep at that barrier and comes back wrapped, with no Solution.
func TestCheckpointerErrorAbortsSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := randomProblem(rng, 5, 4)
	for name, run := range map[string]func(Progress) (*Solution, error){
		"seq": func(h Progress) (*Solution, error) {
			return SolveCheckpointedCtx(context.Background(), p, nil, h)
		},
		"parallel": func(h Progress) (*Solution, error) {
			return SolveParallelPooledCtx(context.Background(), p, 2, nil, nil, h)
		},
	} {
		var got []report
		sol, err := run(recordProgress(&got, 2))
		if !errors.Is(err, errHook) || err == errHook {
			t.Errorf("%s: hook error not returned wrapped: %v", name, err)
		}
		if sol != nil {
			t.Errorf("%s: aborted solve returned a Solution", name)
		}
		if len(got) != 2 {
			t.Errorf("%s: hook called %d times, want the sweep to stop at its 2nd report", name, len(got))
		}
	}
}
