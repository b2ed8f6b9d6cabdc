package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/certify"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/workload"
)

func post422Body(t *testing.T, ts *httptest.Server, target string, body []byte) *oversizeBody {
	t.Helper()
	resp, err := http.Post(ts.URL+target, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422", resp.StatusCode)
	}
	var ob oversizeBody
	if err := json.NewDecoder(resp.Body).Decode(&ob); err != nil {
		t.Fatal(err)
	}
	return &ob
}

// TestOversize422StructuredBody pins the structured rejection contract: the
// body names the exceeded budget, its limit, the offending value, and — when
// the approx plane could serve the instance — the smallest approx= setting
// that would have been accepted.
func TestOversize422StructuredBody(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxK: 6})
	p := workload.Random(3, 8, 4, 4) // K=8 > MaxK=6, well inside approx caps
	ob := post422Body(t, ts, "/v1/solve", instanceJSON(t, p))
	if ob.Budget != "k" || ob.Limit != 6 || ob.Got != 8 {
		t.Fatalf("budget/limit/got = %q/%d/%d, want k/6/8", ob.Budget, ob.Limit, ob.Got)
	}
	if ob.Error == "" || !strings.Contains(ob.Error, "8") {
		t.Fatalf("error text %q does not name the offending value", ob.Error)
	}
	if ob.ApproxHint != "approx=1" {
		t.Fatalf("approx_hint %q, want approx=1", ob.ApproxHint)
	}

	// Actions budget, same contract.
	q := workload.Random(4, 5, 70, 10) // 85 actions > MaxActions default 64
	ob = post422Body(t, ts, "/v1/solve", instanceJSON(t, q))
	if ob.Budget != "actions" || ob.ApproxHint != "approx=1" {
		t.Fatalf("actions reject: budget %q hint %q", ob.Budget, ob.ApproxHint)
	}
}

// TestOversize422NoHintWhenApproxCannotServe: the hint must be withheld when
// the instance is past the approx plane's own caps — advertising a knob that
// would also reject is worse than silence.
func TestOversize422NoHintWhenApproxCannotServe(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxK: 6, ApproxMaxK: 7})
	ob := post422Body(t, ts, "/v1/solve", instanceJSON(t, workload.Random(3, 9, 4, 4)))
	if ob.Budget != "k" {
		t.Fatalf("budget %q, want k", ob.Budget)
	}
	if ob.ApproxHint != "" {
		t.Fatalf("approx_hint %q, want absent: approx caps also reject K=9", ob.ApproxHint)
	}
}

// TestOversize422StructuredOnBatchAndPolicy: the batch and policy 422s go
// through the same seam as /v1/solve — structured budget/limit/got, and no
// approx hint, since neither endpoint has an approx path.
func TestOversize422StructuredOnBatchAndPolicy(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxK: 6, MaxBatch: 2})
	small := workload.MedicalDiagnosis(3, 4)
	big := workload.Random(3, 8, 4, 4) // K=8 > MaxK=6
	for _, tc := range []struct {
		name, target string
		body         []byte
		budget       string
		limit, got   int
	}{
		{"policy", "/v1/policy", instanceJSON(t, big), "k", 6, 8},
		{"batch size", "/v1/solve/batch", batchJSON(t, []*core.Problem{small, small, small}), "batch", 2, 3},
		{"batch member", "/v1/solve/batch", batchJSON(t, []*core.Problem{small, big}), "k", 6, 8},
	} {
		ob := post422Body(t, ts, tc.target, tc.body)
		if ob.Budget != tc.budget || ob.Limit != tc.limit || ob.Got != tc.got {
			t.Errorf("%s: budget/limit/got = %q/%d/%d, want %s/%d/%d",
				tc.name, ob.Budget, ob.Limit, ob.Got, tc.budget, tc.limit, tc.got)
		}
		if ob.Error == "" || ob.ApproxHint != "" {
			t.Errorf("%s: error %q approx_hint %q, want a message and no hint", tc.name, ob.Error, ob.ApproxHint)
		}
	}
}

// TestApproxServesOversized is the tentpole's acceptance path: an instance
// past the exact K-cap, submitted with approx enabled, returns 200 with a
// procedure tree and a certified gap instead of a 422.
func TestApproxServesOversized(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxK: 6})
	p := workload.Oversized(3, 10) // K=10 > MaxK=6

	// approx=off (the default): still a 422.
	if _, status := postSolve(t, ts, "", instanceJSON(t, p)); status != http.StatusUnprocessableEntity {
		t.Fatalf("approx off: status %d, want 422", status)
	}
	if _, status := postSolve(t, ts, "?approx=off", instanceJSON(t, p)); status != http.StatusUnprocessableEntity {
		t.Fatalf("approx=off: status %d, want 422", status)
	}

	sr, status := postSolve(t, ts, "?approx=1.5", instanceJSON(t, p))
	if status != http.StatusOK {
		t.Fatalf("approx=1.5: status %d, want 200", status)
	}
	if sr.SolvedBy != "approx" || sr.Approx != "1.5" {
		t.Fatalf("solved_by %q approx %q, want approx/1.5", sr.SolvedBy, sr.Approx)
	}
	if !sr.Adequate || sr.Cost == nil || sr.GapMilli == nil || sr.LowerBound == nil {
		t.Fatalf("missing quality claim: %+v", sr)
	}
	if *sr.GapMilli < certify.GapScale {
		t.Fatalf("gap %d below GapScale — certifier math is broken", *sr.GapMilli)
	}
	if sr.FirstAction == "" {
		t.Fatal("approx answer has no first action")
	}
	// The certified claim must be internally consistent: cost ≤ gap·lb.
	if got := certify.GapFor(*sr.Cost, *sr.LowerBound); got > *sr.GapMilli {
		t.Fatalf("reported gap %d below the cost/bound ratio %d", *sr.GapMilli, got)
	}
	want, err := core.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if *sr.Cost < want.Cost || *sr.LowerBound > want.Cost {
		t.Fatalf("served cost %d / bound %d bracket the optimum %d wrongly", *sr.Cost, *sr.LowerBound, want.Cost)
	}

	// approx=1 demands proven optimality; K=10 fits the default node budget,
	// so branch-and-bound completes and the served cost is the true optimum.
	sr, status = postSolve(t, ts, "?approx=1", instanceJSON(t, p))
	if status != http.StatusOK {
		t.Fatalf("approx=1: status %d, want 200", status)
	}
	if !sr.ApproxExact || *sr.Cost != want.Cost {
		t.Fatalf("approx cost %d exact=%v, want optimum %d proven", *sr.Cost, sr.ApproxExact, want.Cost)
	}
	if got := s.Metrics().ApproxServed.Load(); got != 2 {
		t.Fatalf("approx_served = %d, want 2", got)
	}
	if got := s.Metrics().ApproxExact.Load(); got == 0 {
		t.Fatal("approx_exact = 0 after a proven-optimal answer")
	}

	// A deadline-form knob also routes and serves.
	sr, status = postSolve(t, ts, "?approx=200ms", instanceJSON(t, p))
	if status != http.StatusOK || sr.SolvedBy != "approx" || sr.Approx != "200ms" {
		t.Fatalf("approx=200ms: status %d solved_by %q approx %q", status, sr.SolvedBy, sr.Approx)
	}

	// Stats surface the gap aggregates.
	snap := s.Metrics().Snapshot()
	if snap["approx_served"].(int64) < 3 {
		t.Fatalf("stats approx_served %v, want >= 3", snap["approx_served"])
	}
	if snap["approx_gap_milli_max"].(uint64) < certify.GapScale {
		t.Fatalf("stats approx_gap_milli_max %v, want >= %d", snap["approx_gap_milli_max"], certify.GapScale)
	}
}

func TestApproxBadSpecIs400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	p := workload.MedicalDiagnosis(3, 5)
	for _, q := range []string{"?approx=0.5", "?approx=1001", "?approx=-3ms", "?approx=soon"} {
		if _, status := postSolve(t, ts, q, instanceJSON(t, p)); status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, status)
		}
	}
}

// TestApproxCacheIsolation: answers solved under an approx knob live in
// distinct cache slots from exact answers for the same instance, so an
// exactness-demanding request can never be served from the approx plane's
// cache (and vice versa).
func TestApproxCacheIsolation(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	p := workload.MedicalDiagnosis(3, 6) // fits the exact budget
	body := instanceJSON(t, p)

	sr, status := postSolve(t, ts, "?approx=2", body)
	if status != http.StatusOK || sr.Cached {
		t.Fatalf("first approx-enabled request: status %d cached %v", status, sr.Cached)
	}
	sr, _ = postSolve(t, ts, "?approx=2", body)
	if !sr.Cached {
		t.Fatal("identical approx-enabled request missed the cache")
	}
	sr, status = postSolve(t, ts, "", body)
	if status != http.StatusOK || sr.Cached {
		t.Fatalf("exact request after approx ones: status %d cached %v — served from the approx slot", status, sr.Cached)
	}
	if hits := s.Metrics().CacheHits.Load(); hits != 1 {
		t.Fatalf("cache_hits = %d, want exactly the approx-to-approx hit", hits)
	}
}

// TestApproxFallbackRung: with approx enabled and the exact path faulting,
// the approx rung serves a certified-gap answer instead of a 500 — and
// without the knob the same storm is still a 500.
func TestApproxFallbackRung(t *testing.T) {
	s, ts := newTestServer(t, Config{
		EngineFault: chaos.FailFirst("exact", 1<<30, errInjected),
	})
	p := workload.MedicalDiagnosis(9, 7)
	if _, status := postSolve(t, ts, "", instanceJSON(t, p)); status != http.StatusInternalServerError {
		t.Fatalf("no approx knob: status %d, want 500", status)
	}
	sr, status := postSolve(t, ts, "?approx=3", instanceJSON(t, p))
	if status != http.StatusOK {
		t.Fatalf("approx fallback: status %d, want 200", status)
	}
	if sr.Engine != "exact" || sr.SolvedBy != "approx" {
		t.Fatalf("engine %q solved_by %q, want exact/approx", sr.Engine, sr.SolvedBy)
	}
	if sr.GapMilli == nil || sr.LowerBound == nil {
		t.Fatalf("fallback answer carries no certified claim: %+v", sr)
	}
	if s.Metrics().Fallbacks.Load() != 1 {
		t.Fatalf("fallbacks = %d, want 1", s.Metrics().Fallbacks.Load())
	}
}

// TestApproxCorruptionRefused: a chaos hook corrupting the approx engine's
// answers must be caught by the mandatory gap certification — the corrupted
// answer never reaches the cache or the client.
func TestApproxCorruptionRefused(t *testing.T) {
	s, ts := newTestServer(t, Config{
		MaxK:        6,
		ResultFault: func(rung string) bool { return rung == "approx" },
	})
	p := workload.Oversized(5, 9)
	if _, status := postSolve(t, ts, "?approx=1.2", instanceJSON(t, p)); status != http.StatusInternalServerError {
		t.Fatalf("corrupted approx answer: status %d, want 500", status)
	}
	if s.Metrics().CertifyFail.Load() == 0 {
		t.Fatal("certify_fail not incremented for corrupted approx answer")
	}
	if s.Metrics().ApproxServed.Load() != 0 {
		t.Fatal("corrupted answer counted as served")
	}
	if s.cache.len() != 0 {
		t.Fatal("corrupted answer reached the cache")
	}
}

// TestExactPathBytesUnchanged: requests that never enable approx must not
// carry any of the new response fields — the exact path's wire format is
// byte-for-byte what it was before the approx plane existed.
func TestExactPathBytesUnchanged(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json",
		bytes.NewReader(instanceJSON(t, workload.MedicalDiagnosis(3, 5))))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	for _, field := range []string{"approx", "gap_milli", "lower_bound"} {
		if bytes.Contains(raw, []byte(`"`+field+`"`)) {
			t.Fatalf("exact response leaked field %q: %s", field, raw)
		}
	}
}

// TestApproxInadequateWitness: an uncoverable instance routed to the approx
// plane reports inadequate with the witness-certified claim, not an error.
func TestApproxInadequateWitness(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxK: 6})
	p := workload.Oversized(7, 9)
	// Remove every treatment covering object 0: drop the catch-all and the
	// pair treatment fix-0.
	var acts []core.Action
	for _, a := range p.Actions {
		if a.Treatment && a.Set.Has(0) {
			continue
		}
		acts = append(acts, a)
	}
	p.Actions = acts
	sr, status := postSolve(t, ts, "?approx=1", instanceJSON(t, p))
	if status != http.StatusOK {
		t.Fatalf("status %d, want 200", status)
	}
	if sr.Adequate || sr.Cost != nil {
		t.Fatalf("want inadequate with no cost, got %+v", sr)
	}
	if sr.SolvedBy != "approx" || sr.GapMilli == nil || *sr.GapMilli != certify.GapScale {
		t.Fatalf("inadequacy witness is exact: want gap %d from approx, got %+v", certify.GapScale, sr)
	}
}
