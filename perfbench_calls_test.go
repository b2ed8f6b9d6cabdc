package repro_test

import (
	"context"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/stripe"
	"repro/internal/workload"
)

// TestPerfbenchCallShapes makes the perfbench module's three exact-solver
// calls verbatim. perfbench has its own go.mod, so `go test ./...` never
// compiles it and only `make perfbench-check` would catch a signature change
// that breaks it; this mirror fails the root suite instead. Each shape names
// the perfbench line it copies, and the test checks that line still reads
// the same, so an edit to either side shows up here.
func TestPerfbenchCallShapes(t *testing.T) {
	ctx := context.Background()
	canon := workload.MedicalDiagnosis(5, 6)
	const replayWorkers = 0 // perfbench/replay.go:23
	want, err := core.Solve(canon)
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range []struct {
		file string
		line int
		call string
		run  func() (*core.Solution, error)
	}{
		{"perfbench/workloads.go", 827, "core.SolveCheckpointedCtx(context.Background(), canon, nil, nil)",
			func() (*core.Solution, error) {
				return core.SolveCheckpointedCtx(context.Background(), canon, nil, nil)
			}},
		{"perfbench/replay.go", 111, "core.SolveParallelPooledCtx(ctx, canon, replayWorkers, stripe.Shared(), nil, nil)",
			func() (*core.Solution, error) {
				return core.SolveParallelPooledCtx(ctx, canon, replayWorkers, stripe.Shared(), nil, nil)
			}},
		{"perfbench/replay.go", 114, "core.SolveCheckpointedCtx(ctx, canon, nil, nil)",
			func() (*core.Solution, error) { return core.SolveCheckpointedCtx(ctx, canon, nil, nil) }},
	} {
		src, err := os.ReadFile(sh.file)
		if err != nil {
			t.Fatal(err)
		}
		if lines := strings.Split(string(src), "\n"); sh.line > len(lines) || !strings.Contains(lines[sh.line-1], sh.call) {
			t.Errorf("%s:%d no longer makes the call %s; update this mirror", sh.file, sh.line, sh.call)
		}
		sol, err := sh.run()
		if err != nil {
			t.Fatalf("%s:%d: %v", sh.file, sh.line, err)
		}
		if sol.Cost != want.Cost {
			t.Errorf("%s:%d: cost %d, want %d", sh.file, sh.line, sol.Cost, want.Cost)
		}
		sol.Release()
	}
}
