package chaos_test

import (
	"context"
	"errors"
	"math/rand"
	"syscall"
	"testing"

	"repro/internal/bvmtt"
	"repro/internal/chaos"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/parttsolve"
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

// engine adapts each solver to one shape so every resilience property is
// provable across all of them with the same loop.
type engine struct {
	name string
	k    int // instance size: the bit-level bvm engine gets a smaller one
	run  func(ctx context.Context, p *core.Problem, f *core.Frontier, ck core.Checkpointer) (uint64, []uint64, []int32, error)
}

func engines() []engine {
	return []engine{
		{name: "seq", k: 6, run: func(ctx context.Context, p *core.Problem, f *core.Frontier, ck core.Checkpointer) (uint64, []uint64, []int32, error) {
			sol, err := core.SolveCheckpointedCtx(ctx, p, f, ck)
			if err != nil {
				return 0, nil, nil, err
			}
			return sol.Cost, sol.C, nil, nil
		}},
		{name: "parallel", k: 6, run: func(ctx context.Context, p *core.Problem, f *core.Frontier, ck core.Checkpointer) (uint64, []uint64, []int32, error) {
			sol, err := core.SolveParallelPooledCtx(ctx, p, 3, nil, f, ck)
			if err != nil {
				return 0, nil, nil, err
			}
			return sol.Cost, sol.C, nil, nil
		}},
		{name: "lockstep", k: 6, run: func(ctx context.Context, p *core.Problem, f *core.Frontier, ck core.Checkpointer) (uint64, []uint64, []int32, error) {
			res, err := parttsolve.SolveCheckpointedCtx(ctx, p, parttsolve.Lockstep, f, ck)
			if err != nil {
				return 0, nil, nil, err
			}
			return res.Cost, res.C, res.Choice, nil
		}},
		{name: "goroutine", k: 5, run: func(ctx context.Context, p *core.Problem, f *core.Frontier, ck core.Checkpointer) (uint64, []uint64, []int32, error) {
			res, err := parttsolve.SolveCheckpointedCtx(ctx, p, parttsolve.Goroutine, f, ck)
			if err != nil {
				return 0, nil, nil, err
			}
			return res.Cost, res.C, res.Choice, nil
		}},
		{name: "bvm", k: 4, run: func(ctx context.Context, p *core.Problem, f *core.Frontier, ck core.Checkpointer) (uint64, []uint64, []int32, error) {
			res, err := bvmtt.SolveCheckpointedCtx(ctx, p, 0, f, ck)
			if err != nil {
				return 0, nil, nil, err
			}
			return res.Cost, res.C, nil, nil
		}},
	}
}

// compare requires an engine's answer to equal the sequential solve's: the
// cost, the C plane, and — for the machine engines, which report argmins —
// the lowest-index minimizer at every set.
func compare(t *testing.T, label string, p *core.Problem, want *core.Solution, cost uint64, c []uint64, choice []int32) {
	t.Helper()
	if cost != want.Cost {
		t.Fatalf("%s: cost %d, want %d", label, cost, want.Cost)
	}
	for s := range want.C {
		if c[s] != want.C[s] {
			t.Fatalf("%s: C[%d] = %d, want %d", label, s, c[s], want.C[s])
		}
		if choice == nil {
			continue
		}
		if _, ch := core.Cell(p, want.C, core.Set(s)); choice[s] != ch {
			t.Fatalf("%s: Choice[%d] = %d, want %d", label, s, choice[s], ch)
		}
	}
}

// TestKillAtEveryLevelResume is the tentpole guarantee: kill every engine at
// every level barrier right after its durable checkpoint, reload that
// checkpoint from disk, resume on the same engine, and require the result to
// be bit-identical to an uninterrupted sequential solve.
func TestKillAtEveryLevelResume(t *testing.T) {
	ctx := context.Background()
	for _, eng := range engines() {
		p := genProblem(41, eng.k, 5)
		want, err := core.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		hash, err := checkpoint.ProblemHash(p)
		if err != nil {
			t.Fatal(err)
		}
		for level := 1; level < p.K; level++ {
			dir := t.TempDir()
			w, err := checkpoint.NewWriter(nil, dir, p, hash, eng.name, 0)
			if err != nil {
				t.Fatal(err)
			}
			_, _, _, err = eng.run(ctx, p, nil, &chaos.Kill{Inner: w, Level: level})
			if !errors.Is(err, chaos.ErrKilled) {
				t.Fatalf("%s: kill at level %d not delivered: %v", eng.name, level, err)
			}
			snaps, discard, err := checkpoint.Scan(nil, dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(snaps) != 1 || len(discard) != 0 {
				t.Fatalf("%s level %d: scan found %d snapshots, %d discards", eng.name, level, len(snaps), len(discard))
			}
			snap := snaps[0]
			if snap.Level != level || snap.Engine != eng.name || snap.Hash != hash {
				t.Fatalf("%s: snapshot %+v after kill at level %d", eng.name, snap, level)
			}
			cost, c, choice, err := eng.run(ctx, snap.Problem, snap.Frontier, nil)
			if err != nil {
				t.Fatalf("%s: resume from level %d: %v", eng.name, level, err)
			}
			compare(t, eng.name, p, want, cost, c, choice)
		}
	}
}

// TestCrossEngineResume proves a frontier is engine-portable: a checkpoint
// holds C alone, so one written by the sequential engine and one written by
// the bit-level bvm engine each resume on every engine, and the machine
// engines recompute the restored argmins themselves.
func TestCrossEngineResume(t *testing.T) {
	ctx := context.Background()
	p := genProblem(17, 4, 5)
	want, err := core.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	hash, err := checkpoint.ProblemHash(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, writer := range engines() {
		if writer.name != "seq" && writer.name != "bvm" {
			continue
		}
		dir := t.TempDir()
		w, err := checkpoint.NewWriter(nil, dir, p, hash, writer.name, 0)
		if err != nil {
			t.Fatal(err)
		}
		_, _, _, err = writer.run(ctx, p, nil, &chaos.Kill{Inner: w, Level: 2})
		if !errors.Is(err, chaos.ErrKilled) {
			t.Fatal(err)
		}
		snap, err := checkpoint.Load(nil, w.Path())
		if err != nil {
			t.Fatal(err)
		}
		for _, eng := range engines() {
			cost, c, choice, err := eng.run(ctx, p, snap.Frontier, nil)
			if err != nil {
				t.Fatalf("%s frontier on %s: %v", writer.name, eng.name, err)
			}
			compare(t, writer.name+" frontier on "+eng.name, p, want, cost, c, choice)
		}
	}
}

// TestDiskFullMidSolve runs the checkpoint store on a disk that fills up
// mid-solve, leaving torn temp residue. The solve surfaces ENOSPC, the last
// published checkpoint survives intact, the torn file is quarantined by
// Scan, and the resume is bit-identical.
func TestDiskFullMidSolve(t *testing.T) {
	ctx := context.Background()
	p := genProblem(29, 5, 4)
	want, err := core.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	hash, err := checkpoint.ProblemHash(p)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ffs := &chaos.FaultFS{FailWriteAt: 3, TornBytes: 9}
	w, err := checkpoint.NewWriter(ffs, dir, p, hash, "seq", 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = core.SolveCheckpointedCtx(ctx, p, nil, w)
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("disk-full not surfaced: %v", err)
	}
	if ffs.Writes() != 3 {
		t.Fatalf("%d writes, want 3 (two published levels, one failure)", ffs.Writes())
	}
	snaps, discard, err := checkpoint.Scan(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 || snaps[0].Level != 2 {
		t.Fatalf("surviving snapshots: %+v", snaps)
	}
	if len(discard) != 1 {
		t.Fatalf("torn temp file not quarantined: %v", discard)
	}
	sol, err := core.SolveCheckpointedCtx(ctx, p, snaps[0].Frontier, nil)
	if err != nil {
		t.Fatal(err)
	}
	compare(t, "resume after ENOSPC", p, want, sol.Cost, sol.C, nil)
}

// TestRenameFailure breaks the publish step itself: the write of the temp
// file succeeds but the atomic rename fails, so the previous published
// checkpoint must remain the live one.
func TestRenameFailure(t *testing.T) {
	ctx := context.Background()
	p := genProblem(29, 5, 4)
	hash, err := checkpoint.ProblemHash(p)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ffs := &chaos.FaultFS{FailRenameAt: 2}
	w, err := checkpoint.NewWriter(ffs, dir, p, hash, "seq", 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = core.SolveCheckpointedCtx(ctx, p, nil, w)
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("rename failure not surfaced: %v", err)
	}
	snaps, discard, err := checkpoint.Scan(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 || snaps[0].Level != 1 {
		t.Fatalf("surviving snapshots: %+v", snaps)
	}
	if len(discard) != 1 {
		t.Fatalf("unpublished temp file not quarantined: %v", discard)
	}
}

// TestKillWithoutCheckpointer: dying with no durable state is still safe —
// there is nothing to scan and a fresh solve is simply correct.
func TestKillWithoutCheckpointer(t *testing.T) {
	p := genProblem(7, 5, 4)
	_, err := core.SolveCheckpointedCtx(context.Background(), p, nil, &chaos.Kill{Level: 2})
	if !errors.Is(err, chaos.ErrKilled) {
		t.Fatal(err)
	}
	want, err := core.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := core.SolveCheckpointedCtx(context.Background(), p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	compare(t, "fresh solve", p, want, sol.Cost, sol.C, nil)
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
