package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tab := &Table{
		ID:         "T0",
		Title:      "demo",
		PaperClaim: "claimed",
		Header:     []string{"a", "long-header"},
		Notes:      []string{"a note"},
	}
	tab.AddRow(1, "x")
	tab.AddRow(22, "yy")
	out := tab.Render()
	for _, want := range []string{"== T0 — demo ==", "paper: claimed", "long-header", "22", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFig1TreeOptimalAndRendered(t *testing.T) {
	out, err := Fig1Tree()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Figure 1", "treat", "expected cost"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig1 missing %q", want)
		}
	}
	// The rendered DP cost and independent tree evaluation must agree (both
	// printed on the last line).
	if !strings.Contains(out, "C(U) = ") {
		t.Error("fig1 missing cost line")
	}
}

func TestFig2Layout(t *testing.T) {
	out, err := Fig2Layout(2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Reg. A") || !strings.Contains(out, "Reg. R[0]") {
		t.Errorf("fig2 missing register rows:\n%s", out)
	}
}

// TestFig3GoldenPattern pins the first cycles of the Figure 3 grid: cycle c
// row shows bit j of c at column j.
func TestFig3GoldenPattern(t *testing.T) {
	out, err := Fig3CycleID()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(out, "\n")
	wantRows := map[int]string{
		0:  "0 0 0 0",
		1:  "1 0 0 0",
		5:  "1 0 1 0",
		10: "0 1 0 1",
		15: "1 1 1 1",
	}
	for c, want := range wantRows {
		found := false
		for _, l := range lines {
			trimmed := strings.TrimSpace(l)
			if strings.HasPrefix(trimmed, strconv.Itoa(c)+" ") && strings.HasSuffix(trimmed, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("fig3: cycle %d row %q not found:\n%s", c, want, out)
		}
	}
}

func TestFig45ProcessorID(t *testing.T) {
	out, err := Fig45ProcessorID()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "cycle-ID") || !strings.Contains(out, "processor-ID planes") {
		t.Errorf("fig4-5 missing stages:\n%s", out)
	}
	// Plane 0 of the processor-ID on 8 PEs is the alternating LSB pattern.
	if !strings.Contains(out, "0 1 0 1 0 1 0 1") {
		t.Errorf("fig4-5 missing LSB plane:\n%s", out)
	}
}

// TestFig6GoldenSchedule pins the paper's printed schedule lines.
func TestFig6GoldenSchedule(t *testing.T) {
	out, err := Fig6Broadcast()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"1. 0000 -> 0001",
		"2. 0000 -> 0010",
		"0001 -> 0011",
		"4. 0000 -> 1000",
		"0111 -> 1111",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("fig6 missing %q:\n%s", want, out)
		}
	}
}

// TestFig7GoldenTrace pins the min-reduction trace.
func TestFig7GoldenTrace(t *testing.T) {
	out, err := Fig7AscendMin()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"[5 3 9 7 2 8 6 4]",
		"[3 3 7 7 2 2 4 4]",
		"[3 3 3 3 2 2 2 2]",
		"[2 2 2 2 2 2 2 2]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("fig7 missing %q:\n%s", want, out)
		}
	}
}

func TestFig89Invariant(t *testing.T) {
	out, err := Fig89RBroadcast()
	if err != nil {
		t.Fatal(err)
	}
	// Figure 8 mapping S={0,1} -> {} and the Figure 9 final-column examples.
	for _, want := range []string{"{0,1}     -> {}", "{2}"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig8-9 missing %q:\n%s", want, out)
		}
	}
}

func TestStepsScalingExactFormula(t *testing.T) {
	tab, err := StepsScaling()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if row[5] != "1.000" {
			t.Errorf("E8 row %v: ratio %s != 1.000", row, row[5])
		}
	}
}

func TestSpeedupBounded(t *testing.T) {
	tab, err := Speedup()
	if err != nil {
		t.Fatal(err)
	}
	// The S/(p/log p) column must stay within a fixed constant band, which is
	// what O(p/log p) means operationally.
	var lo, hi float64 = 1e18, 0
	for _, row := range tab.Rows {
		var v float64
		if _, err := fmtSscan(row[7], &v); err != nil {
			t.Fatalf("bad ratio cell %q", row[7])
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi/lo > 12 {
		t.Errorf("E9 constant band too wide: [%f, %f]", lo, hi)
	}
}

func TestSlowdownBand(t *testing.T) {
	tab, err := Slowdown()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		var slow float64
		if _, err := fmtSscan(row[4], &slow); err != nil {
			t.Fatal(err)
		}
		if slow < 2 || slow > 6 {
			t.Errorf("E10: pipelined slowdown %f outside [2,6] in row %v", slow, row)
		}
	}
}

func TestLinksExact(t *testing.T) {
	tab, err := Links()
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range tab.Rows {
		if i == 0 {
			continue // r=1 degenerates
		}
		if row[2] != row[3] {
			t.Errorf("E11 row %v: links %s != 3p/2 %s", row, row[2], row[3])
		}
	}
}

func TestCapacityMatchesPaperNumbers(t *testing.T) {
	tab, err := Capacity()
	if err != nil {
		t.Fatal(err)
	}
	// Find the 2^30 / N=2^k row: max k must be 15 (the paper's claim).
	found := false
	for _, row := range tab.Rows {
		if row[0] == "2^30" && row[1] == "N = 2^k" {
			found = true
			if row[2] != "15" {
				t.Errorf("E12: 2^30/2^k max k = %s, want 15", row[2])
			}
		}
		if row[0] == "2^30" && row[1] == "N = k^2" {
			if row[2] != "21" && row[2] != "20" {
				t.Errorf("E12: 2^30/k^2 max k = %s, want ~20", row[2])
			}
		}
	}
	if !found {
		t.Fatal("E12 missing the 2^30 row")
	}
}

func TestCrossValidationAllAgree(t *testing.T) {
	tab, err := CrossValidation()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 5 {
		t.Fatalf("E13: only %d rows", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		for _, cell := range row[4:] {
			if cell != "=" {
				t.Errorf("E13 row %v: disagreement", row)
			}
		}
	}
}

func TestGreedyGapNonNegative(t *testing.T) {
	tab, err := GreedyGap()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		var gap float64
		if _, err := fmtSscan(row[4], &gap); err != nil {
			t.Fatal(err)
		}
		if gap < 0 {
			t.Errorf("E14 row %v: negative gap (greedy beat the optimum?)", row)
		}
	}
}

func TestPriorRobustnessNonNegative(t *testing.T) {
	tab, err := PriorRobustness()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		var regret float64
		if _, err := fmtSscan(row[4], &regret); err != nil {
			t.Fatal(err)
		}
		if regret < -0.05 {
			t.Errorf("E16 row %v: negative regret", row)
		}
	}
}

func TestAblations(t *testing.T) {
	if _, err := AblationGather(); err != nil {
		t.Errorf("A1: %v", err)
	}
	if _, err := AblationControlBits(); err != nil {
		t.Errorf("A3: %v", err)
	}
	if _, err := AblationEngines(); err != nil {
		t.Errorf("A4: %v", err)
	}
}

func TestLookupAndNames(t *testing.T) {
	if Lookup("E8") == nil || Lookup("speedup") == nil {
		t.Fatal("Lookup failed for known keys")
	}
	if Lookup("nope") != nil {
		t.Fatal("Lookup succeeded for unknown key")
	}
	if len(Names()) != len(All()) {
		t.Fatal("Names/All size mismatch")
	}
}

// TestRunAllProducesEverySection: the report has a section for every
// experiment. It reads the same sweep as TestReportMatchesGolden.
func TestRunAllProducesEverySection(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep in -short mode")
	}
	out, err := maskedReport()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range All() {
		if !strings.Contains(out, "== "+e.ID+" ") {
			t.Errorf("RunAll output missing section %s", e.ID)
		}
	}
}

// fmtSscan parses a float cell.
func fmtSscan(s string, v *float64) (int, error) {
	return fmt.Sscan(s, v)
}
