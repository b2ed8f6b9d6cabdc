package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
)

// captureCk snapshots every frontier it receives (deep copies, since the
// solver hands over its live tables).
type captureCk struct {
	frontiers []*Frontier
	failAt    int // level at which to return errCkFail; 0 disables
}

var errCkFail = errors.New("checkpointer failed")

func (c *captureCk) CheckpointLevel(level int, sol *Solution) error {
	f := &Frontier{Level: level, C: append([]uint64(nil), sol.C...)}
	c.frontiers = append(c.frontiers, f)
	if c.failAt != 0 && level == c.failAt {
		return errCkFail
	}
	return nil
}

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
		sameSolution(t, want, got, "level-ordered sweep")
	}
}

// TestResumeAtEveryLevel kills the sweep at every level barrier and resumes
// from the captured frontier, for both the sequential and parallel engines,
// requiring bit-identical tables and Ops against an uninterrupted Solve.
func TestResumeAtEveryLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := randomProblem(rng, 6, 5)
	want, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	ck := &captureCk{}
	if _, err := SolveCheckpointedCtx(context.Background(), p, nil, ck); err != nil {
		t.Fatal(err)
	}
	if len(ck.frontiers) != p.K-1 {
		t.Fatalf("captured %d frontiers, want %d", len(ck.frontiers), p.K-1)
	}
	for _, f := range ck.frontiers {
		seq, err := SolveCheckpointedCtx(context.Background(), p, f, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameSolution(t, want, seq, "seq resume")
		par, err := SolveParallelPooledCtx(context.Background(), p, 3, nil, f, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameSolution(t, want, par, "parallel resume")
	}
}

func TestParallelCheckpointsMatchSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	p := randomProblem(rng, 5, 4)
	seqCk, parCk := &captureCk{}, &captureCk{}
	if _, err := SolveCheckpointedCtx(context.Background(), p, nil, seqCk); err != nil {
		t.Fatal(err)
	}
	if _, err := SolveParallelPooledCtx(context.Background(), p, 2, nil, nil, parCk); err != nil {
		t.Fatal(err)
	}
	if len(seqCk.frontiers) != len(parCk.frontiers) {
		t.Fatalf("seq fired %d checkpoints, parallel %d", len(seqCk.frontiers), len(parCk.frontiers))
	}
	for i, sf := range seqCk.frontiers {
		pf := parCk.frontiers[i]
		if sf.Level != pf.Level {
			t.Fatalf("checkpoint %d: levels %d vs %d", i, sf.Level, pf.Level)
		}
		// Compare only the trusted frontier region: above it the engines'
		// scratch values legitimately differ.
		for s := range sf.C {
			if popcountInt(s) > sf.Level {
				continue
			}
			if sf.C[s] != pf.C[s] {
				t.Fatalf("checkpoint level %d: frontier mismatch at subset %d", sf.Level, s)
			}
		}
	}
}

func popcountInt(x int) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

func TestCheckpointerErrorAbortsSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := randomProblem(rng, 5, 4)
	for name, run := range map[string]func(ck Checkpointer) error{
		"seq": func(ck Checkpointer) error {
			_, err := SolveCheckpointedCtx(context.Background(), p, nil, ck)
			return err
		},
		"parallel": func(ck Checkpointer) error {
			_, err := SolveParallelPooledCtx(context.Background(), p, 2, nil, nil, ck)
			return err
		},
	} {
		err := run(&captureCk{failAt: 2})
		if !errors.Is(err, errCkFail) {
			t.Errorf("%s: checkpointer error not propagated: %v", name, err)
		}
	}
}

func TestFrontierValidate(t *testing.T) {
	size := 1 << 4
	good := &Frontier{Level: 2, C: make([]uint64, size)}
	if err := good.Validate(4); err != nil {
		t.Fatalf("valid frontier rejected: %v", err)
	}
	cases := []*Frontier{
		nil,
		{Level: -1, C: make([]uint64, size)},
		{Level: 5, C: make([]uint64, size)},
		{Level: 2, C: make([]uint64, size-1)},
	}
	for i, f := range cases {
		if err := f.Validate(4); err == nil {
			t.Errorf("case %d: invalid frontier accepted", i)
		}
	}
	bad := &Frontier{Level: 1, C: make([]uint64, size)}
	bad.C[0] = 7
	if err := bad.Validate(4); err == nil {
		t.Error("nonzero C(∅) accepted")
	}
	rng := rand.New(rand.NewSource(1))
	p := randomProblem(rng, 4, 3)
	if _, err := SolveCheckpointedCtx(context.Background(), p, &Frontier{Level: 1, C: make([]uint64, size/2)}, nil); err == nil {
		t.Error("resume accepted a frontier for the wrong universe")
	}
}
