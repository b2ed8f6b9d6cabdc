package chaos_test

import (
	"context"
	"errors"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/bvmtt"
	"repro/internal/chaos"
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
	kn, err := core.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	for s := range want.C {
		if c[s] != want.C[s] {
			t.Fatalf("%s: C[%d] = %d, want %d", label, s, c[s], want.C[s])
		}
		if choice == nil {
			continue
		}
		if _, ch := kn.Cell(want.C, core.Set(s)); choice[s] != ch {
			t.Fatalf("%s: Choice[%d] = %d, want %d", label, s, choice[s], ch)
		}
	}
}

// frontierCk is an in-memory core.Checkpointer: at one level barrier it
// copies the live C plane, the whole resumable state of a solve. Entries
// above the frontier are overwritten with a poison value, so a resume that
// read one instead of recomputing it would show up as a wrong answer.
type frontierCk struct {
	level int
	f     *core.Frontier
}

const poison = 0xdead

func (m *frontierCk) CheckpointLevel(level int, sol *core.Solution) error {
	if level != m.level {
		return nil
	}
	c := append([]uint64(nil), sol.C...)
	for s := range c {
		if bits.OnesCount(uint(s)) > level {
			c[s] = poison
		}
	}
	m.f = &core.Frontier{Level: level, C: c}
	return nil
}

// killAt runs eng on p until the kill at level and returns the frontier
// its last barrier handed over.
func killAt(t *testing.T, eng engine, p *core.Problem, level int) *core.Frontier {
	t.Helper()
	ck := &frontierCk{level: level}
	_, _, _, err := eng.run(context.Background(), p, nil, &chaos.Kill{Inner: ck, Level: level})
	if !errors.Is(err, chaos.ErrKilled) {
		t.Fatalf("%s: kill at level %d not delivered: %v", eng.name, level, err)
	}
	if ck.f == nil {
		t.Fatalf("%s: no frontier recorded at level %d", eng.name, level)
	}
	return ck.f
}

// TestKillAtEveryLevelResume is the resume guarantee: kill every engine at
// every level barrier right after it hands over its frontier, resume on the
// same engine from that frontier, and require the result to be
// bit-identical to an uninterrupted sequential solve.
func TestKillAtEveryLevelResume(t *testing.T) {
	ctx := context.Background()
	for _, eng := range engines() {
		p := genProblem(41, eng.k, 5)
		want, err := core.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		for level := 1; level < p.K; level++ {
			f := killAt(t, eng, p, level)
			cost, c, choice, err := eng.run(ctx, p, f, nil)
			if err != nil {
				t.Fatalf("%s: resume from level %d: %v", eng.name, level, err)
			}
			compare(t, eng.name, p, want, cost, c, choice)
		}
	}
}

// TestCrossEngineResume proves a frontier is engine-portable: it holds C
// alone, so one taken from the sequential engine and one taken from the
// bit-level bvm engine each resume on every engine, and the machine engines
// recompute the restored argmins themselves.
func TestCrossEngineResume(t *testing.T) {
	ctx := context.Background()
	p := genProblem(17, 4, 5)
	want, err := core.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, writer := range engines() {
		if writer.name != "seq" && writer.name != "bvm" {
			continue
		}
		f := killAt(t, writer, p, 2)
		for _, eng := range engines() {
			cost, c, choice, err := eng.run(ctx, p, f, nil)
			if err != nil {
				t.Fatalf("%s frontier on %s: %v", writer.name, eng.name, err)
			}
			compare(t, writer.name+" frontier on "+eng.name, p, want, cost, c, choice)
		}
	}
}

// TestKillWithoutCheckpointer: dying with no saved frontier is still safe —
// there is nothing to resume from and a fresh solve is simply correct.
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
