package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden figure files")

// TestFiguresMatchGolden pins the complete rendered output of every
// deterministic figure reproduction against checked-in golden files.
// Regenerate with: go test ./internal/experiments -run Golden -update-golden
func TestFiguresMatchGolden(t *testing.T) {
	cases := []struct {
		name string
		gen  func() (string, error)
	}{
		{"fig1", Fig1Tree},
		{"fig2", func() (string, error) { return Fig2Layout(2) }},
		{"fig3", Fig3CycleID},
		{"fig4-5", Fig45ProcessorID},
		{"fig6", Fig6Broadcast},
		{"fig7", Fig7AscendMin},
		{"fig8-9", Fig89RBroadcast},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := c.gen()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", c.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update-golden): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s output changed; diff against %s or regenerate with -update-golden\ngot:\n%s",
					c.name, path, got)
			}
		})
	}
}

// TestDesignIndexCoversAllExperiments keeps DESIGN.md's experiment index in
// lockstep with the harness: every runnable experiment must be documented.
func TestDesignIndexCoversAllExperiments(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	design := string(data)
	for _, e := range All() {
		if !strings.Contains(design, "| "+e.ID+" |") && !strings.Contains(design, "**"+e.ID+"**") {
			t.Errorf("experiment %s (%s) missing from DESIGN.md", e.ID, e.Name)
		}
	}
}

// timedTables are the experiments whose tables hold host wall-clock
// columns, with those columns; maskedReport blanks them so that the rest of
// the report can be pinned byte for byte.
var timedTables = map[string]struct {
	gen  func() (*Table, error)
	cols []string
}{
	"A4": {AblationEngines, []string{"lockstep", "goroutines", "ratio"}},
}

// maskedReport is RunAll's output with the columns of timedTables replaced
// by "*". It runs the full sweep once per test binary, and both
// TestRunAllProducesEverySection and TestReportMatchesGolden read it.
var maskedReport = sync.OnceValues(func() (string, error) {
	exps := All()
	for i, e := range exps {
		if timed, ok := timedTables[e.ID]; ok {
			exps[i] = tableExp(e.ID, e.Name, func() (*Table, error) {
				t, err := timed.gen()
				if err != nil {
					return nil, err
				}
				for _, name := range timed.cols {
					c := slices.Index(t.Header, name)
					if c < 0 {
						return nil, fmt.Errorf("%s has no column %q to mask", e.ID, name)
					}
					for _, row := range t.Rows {
						row[c] = "*"
					}
				}
				return t, nil
			})
		}
	}
	var sb strings.Builder
	err := runAll(&sb, exps)
	return sb.String(), err
})

// TestReportMatchesGolden pins the full reproduction report (ttbench -run
// all, which docs/report.txt records) with its host timings masked: every
// figure, step count, instruction count and cost of E1–E21 and A1–A4.
// Regenerate with: go test ./internal/experiments -run Golden -update-golden
func TestReportMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep in -short mode")
	}
	got, err := maskedReport()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "report.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("report differs from %s at line %d:\ngot:  %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("report has %d lines, %s has %d", len(gl), path, len(wl))
	}
}
