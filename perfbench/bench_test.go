package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/certify"
	"repro/internal/core"
	"repro/internal/serve"
)

// TestMain lets the test binary host the benchmark's server child, as the
// benchmark binary does.
func TestMain(m *testing.M) {
	if os.Getenv(serveEnv) == "1" {
		os.Exit(serveMain())
	}
	os.Exit(m.Run())
}

// declaredMetrics reads the metric names BENCHMARK.json promises.
func declaredMetrics(t *testing.T) (endToEnd, perLayerNames []string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayerNames = append(perLayerNames, m.Name)
	}
	return endToEnd, perLayerNames
}

// TestEveryWorkloadShort runs every workload, untraced and traced, for a
// fraction of a second and checks that each declared metric is reported
// and that nothing failed.
func TestEveryWorkloadShort(t *testing.T) {
	endToEnd, layers := declaredMetrics(t)
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{workload: name, seed: 3, window: 300 * time.Millisecond, trace: traced,
				setups: 1, spans: filepath.Join(t.TempDir(), "spans.json")}
			res, wrong, err := run(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if len(wrong) > 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d of %d: %v", name, traced, res.Correct, res.Failed, res.Attempted, wrong)
			}
			want := endToEnd
			if traced {
				want = layers
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if _, ok := res.Metrics[m]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", name, traced, m)
				}
			}
		}
	}
}

// solveReply encodes an adequate /v1/solve reply with fields set by mutate.
func solveReply(t *testing.T, mutate func(*serve.SolveResponse)) []byte {
	t.Helper()
	r := serve.SolveResponse{Adequate: true, SolvedBy: "seq"}
	mutate(&r)
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func u64(v uint64) *uint64 { return &v }

// TestCheckCatchesTamperedAnswers feeds each workload's checker one
// tampered answer and expects it to be reported.
func TestCheckCatchesTamperedAnswers(t *testing.T) {
	window := 100 * time.Millisecond

	cold, err := newSolveCold(5, window)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := core.SolveMemo(cold.probs[0])
	if err != nil {
		t.Fatal(err)
	}
	cold.kept[0] = []kept{{0, solveReply(t, func(r *serve.SolveResponse) { r.Cost = u64(exact) })}}
	if bad := cold.check(); len(bad) != 0 {
		t.Fatalf("the true answer was refused: %v", bad)
	}
	cold.kept[0] = []kept{{0, solveReply(t, func(r *serve.SolveResponse) { r.Cost = u64(exact + 1) })}}
	if bad := cold.check(); len(bad) != 1 || !strings.Contains(bad[0], "SolveMemo") {
		t.Errorf("cost+1 on solve-cold: %v", bad)
	}

	ai := coldApproxEach - 1
	cold.kept[0] = []kept{{ai, solveReply(t, func(r *serve.SolveResponse) {
		r.SolvedBy, r.Cost, r.GapMilli, r.LowerBound = "approx", u64(1000), u64(1000), u64(1)
	})}}
	if bad := cold.check(); len(bad) != 1 || !strings.Contains(bad[0], "lower_bound") {
		t.Errorf("wrong lower bound on an approx reply: %v", bad)
	}
	lb := certify.LowerBound(cold.probs[ai])
	for _, tc := range []struct {
		name           string
		cost, gapMilli uint64
		want           string
	}{
		{"a cost below the lower bound", lb - 1, 2 * certify.GapScale, "below lower_bound"},
		{"a gap claiming better than optimal", lb, certify.GapScale - 1, "gap_milli"},
	} {
		cold.kept[0] = []kept{{ai, solveReply(t, func(r *serve.SolveResponse) {
			r.SolvedBy, r.Cost, r.GapMilli, r.LowerBound = "approx", u64(tc.cost), u64(tc.gapMilli), u64(lb)
		})}}
		if bad := cold.check(); len(bad) != 1 || !strings.Contains(bad[0], tc.want) {
			t.Errorf("%s on an approx reply: %v", tc.name, bad)
		}
	}
	cold.kept[0] = []kept{{0, solveReply(t, func(r *serve.SolveResponse) {
		r.SolvedBy, r.Cost, r.GapMilli, r.LowerBound = "approx", u64(exact), u64(certify.GapScale), u64(exact)
	})}}
	if bad := cold.check(); len(bad) != 1 || !strings.Contains(bad[0], "exact request") {
		t.Errorf("an approx answer to an exact solve-cold request: %v", bad)
	}

	wide, err := newSolveWide(5, window)
	if err != nil {
		t.Fatal(err)
	}
	bi := 0
	for !wide.reqs[bi].batch {
		bi++
	}
	var batch serve.BatchResponse
	for _, p := range wide.reqs[bi].probs {
		cost, err := core.SolveMemo(p)
		if err != nil {
			t.Fatal(err)
		}
		batch.Items = append(batch.Items, serve.BatchItem{SolvedBy: "batch", Adequate: true, Cost: u64(cost)})
	}
	batch.Items[1].SolvedBy = "approx"
	reply, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	wide.kept[0] = []kept{{bi, reply}}
	if bad := wide.check(); len(bad) != 1 || !strings.Contains(bad[0], "exact request") {
		t.Errorf("an approx answer to an exact solve-wide batch item: %v", bad)
	}

	hot, err := newSolveHot(5, window)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range hot.probs {
		cost, err := core.SolveMemo(p)
		if err != nil {
			t.Fatal(err)
		}
		hot.want[i] = hotAnswer{fmt.Sprint(i), cost}
	}
	hot.kept[0] = []kept{{0, solveReply(t, func(r *serve.SolveResponse) {
		r.Cached, r.InstanceHash, r.Cost = true, "0", u64(hot.want[0].cost+1)
	})}}
	if bad := hot.check(); len(bad) != 1 {
		t.Errorf("cost+1 on a solve-hot reply: %v", bad)
	}
	hot.kept[0] = nil
	for i := range hot.want {
		hot.want[i].cost++ // a server that answered every set-up solve wrongly
	}
	if bad := hot.check(); len(bad) != memoSample {
		t.Errorf("wrong set-up answers on solve-hot: %v", bad)
	}

	route, err := newRouteWalk(5, window)
	if err != nil {
		t.Fatal(err)
	}
	route.pols = []routePolicy{{actions: []serve.PolicyAction{
		{Name: "cure-0", Objects: []int{0}, Treatment: true},
		{Name: "cure-1", Objects: []int{1}, Treatment: true},
	}}}
	route.done[0] = []sessionRec{{plan: sessionPlan{0, 1}, steps: 1, last: 0}}
	if bad := route.check(); len(bad) != 1 {
		t.Errorf("a session ending on a treatment that misses its object: %v", bad)
	}
}

// TestQuartilesMatchPython pins the exclusive-method quartiles against
// values statistics.quantiles(v, n=4) gives.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
