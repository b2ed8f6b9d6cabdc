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
// range count, done strictly increasing, total always 2^K−1. A one-range
// sweep visits sets in numeric order and reports done = 2^j−1 for
// j = 1..K−1; a multi-range sweep reports at each level barrier but the
// last, done = Σ_{1≤i≤j} C(K,i) after level j.
func TestProgressReports(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, k := range []int{1, 2, 6, 9} {
		p := randomProblem(rng, k, 7)
		var numeric, levels []report
		done, total := uint64(0), uint64(1)<<uint(k)-1
		for j := 1; j < k; j++ {
			numeric = append(numeric, report{uint64(1)<<uint(j) - 1, total})
			done += binomial(k, j)
			levels = append(levels, report{done, total})
		}
		for _, ranges := range []int{1, 2, 4} {
			want := levels
			if ranges == 1 {
				want = numeric
			}
			var got []report
			sol, err := SolveParallelPooledCtx(context.Background(), p, ranges, nil, nil, recordProgress(&got, 0))
			if err != nil {
				t.Fatal(err)
			}
			sol.Release()
			if len(got) != k-1 {
				t.Fatalf("k=%d ranges=%d: %d reports, want %d", k, ranges, len(got), k-1)
			}
			for i, r := range got {
				if r != want[i] {
					t.Fatalf("k=%d ranges=%d: report %d is %d/%d, want %d/%d",
						k, ranges, i, r.done, r.total, want[i].done, want[i].total)
				}
				if i > 0 && r.done <= got[i-1].done {
					t.Fatalf("k=%d ranges=%d: done fell from %d to %d", k, ranges, got[i-1].done, r.done)
				}
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
