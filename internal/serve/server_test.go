package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/instio"
	"repro/internal/workload"
)

func testLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = testLogger()
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func instanceJSON(t *testing.T, p *core.Problem) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := instio.Write(&buf, p, ""); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postSolve(t *testing.T, ts *httptest.Server, query string, body []byte) (*SolveResponse, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/solve"+query, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, resp.StatusCode
	}
	var sr SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	return &sr, resp.StatusCode
}

// permuted returns a copy of p with its actions in a random order, to
// exercise the order-normalized cache key.
func permuted(rng *rand.Rand, p *core.Problem) *core.Problem {
	c := p.Clone()
	rng.Shuffle(len(c.Actions), func(i, j int) {
		c.Actions[i], c.Actions[j] = c.Actions[j], c.Actions[i]
	})
	return c
}

func TestCanonicalHashIgnoresActionOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := workload.MedicalDiagnosis(3, 8)
	h1, err := Hash(Canonicalize(p))
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		h2, err := Hash(Canonicalize(permuted(rng, p)))
		if err != nil {
			t.Fatal(err)
		}
		if h2 != h1 {
			t.Fatalf("permuted instance hashed to %s, want %s", h2, h1)
		}
	}
	// A genuinely different instance hashes differently.
	q := p.Clone()
	q.Weights[0]++
	h3, err := Hash(Canonicalize(q))
	if err != nil {
		t.Fatal(err)
	}
	if h3 == h1 {
		t.Fatal("distinct instances collided")
	}
}

func TestLRUCacheEviction(t *testing.T) {
	c := newLRU(2, 0)
	a := &cacheEntry{hash: "a", key: "a"}
	b := &cacheEntry{hash: "b", key: "b"}
	d := &cacheEntry{hash: "d", key: "d"}
	c.add(a)
	c.add(b)
	if c.get("a") == nil {
		t.Fatal("a evicted too early")
	}
	c.add(d) // "b" is now least recently used
	if c.get("b") != nil {
		t.Fatal("lru entry not evicted")
	}
	if c.get("a") == nil || c.get("d") == nil {
		t.Fatal("wrong entry evicted")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
}

// TestSolveMatchesCoreAcrossEngines: engine= omitted and the two names the
// one exact path still answers to, seq and parallel, each solve afresh
// (cache off) and match core.Solve, solved by exact.
func TestSolveMatchesCoreAcrossEngines(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheEntries: -1})
	p := workload.MedicalDiagnosis(11, 6)
	want, err := core.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	body := instanceJSON(t, p)
	for _, query := range []string{"", "?engine=seq", "?engine=parallel"} {
		sr, status := postSolve(t, ts, query, body)
		if status != http.StatusOK {
			t.Fatalf("%q: status %d", query, status)
		}
		if sr.Cached || sr.Engine != "exact" || sr.SolvedBy != "exact" {
			t.Fatalf("%q: cached %v engine %q solved_by %q, want a fresh exact solve", query, sr.Cached, sr.Engine, sr.SolvedBy)
		}
		if !sr.Adequate || sr.Cost == nil || *sr.Cost != want.Cost {
			t.Fatalf("%q: got %+v, want cost %d", query, sr, want.Cost)
		}
	}
}

// TestRangesShareThePool pins how many stripe-pool workers an exact solve
// may run its blocks on: the pool's width at one solve in flight, and one
// range each once MaxConcurrent solves hold every slot.
func TestRangesShareThePool(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxConcurrent: 4, StripeWorkers: 4})
	s.sem <- struct{}{}
	if got := s.ranges(); got != 4 {
		t.Fatalf("1 solve in flight: %d ranges, want the pool width 4", got)
	}
	s.sem <- struct{}{}
	if got := s.ranges(); got != 2 {
		t.Fatalf("2 solves in flight: %d ranges, want 2", got)
	}
	s.sem <- struct{}{}
	s.sem <- struct{}{}
	if got := s.ranges(); got != 1 {
		t.Fatalf("MaxConcurrent solves in flight: %d ranges, want 1", got)
	}
	for range 4 {
		<-s.sem
	}
}

func TestSolveCacheHitAndPermutedRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	rng := rand.New(rand.NewSource(21))
	p := workload.Logistics(13, 7, 3)
	want, err := core.Solve(p)
	if err != nil {
		t.Fatal(err)
	}

	first, status := postSolve(t, ts, "", instanceJSON(t, p))
	if status != http.StatusOK || first.Cached {
		t.Fatalf("first solve: status %d cached %v", status, first.Cached)
	}
	for trial := 0; trial < 3; trial++ {
		sr, status := postSolve(t, ts, "", instanceJSON(t, permuted(rng, p)))
		if status != http.StatusOK {
			t.Fatalf("status %d", status)
		}
		if !sr.Cached {
			t.Fatalf("permuted re-ask %d missed the cache", trial)
		}
		if sr.InstanceHash != first.InstanceHash {
			t.Fatalf("hash changed across permutations")
		}
		if *sr.Cost != want.Cost {
			t.Fatalf("cached cost %d, want %d", *sr.Cost, want.Cost)
		}
	}
	if got := s.Metrics().Solves.Load(); got != 1 {
		t.Fatalf("solver ran %d times, want 1", got)
	}
	if got := s.Metrics().CacheHits.Load(); got != 3 {
		t.Fatalf("cache hits = %d, want 3", got)
	}
	if s.CacheLen() != 1 {
		t.Fatalf("cache holds %d entries, want 1", s.CacheLen())
	}
}

func TestSolveTreeAndFirstAction(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	p := workload.BinaryTestingUniform(8, 40)
	// greedy= is retired from the service (ttsolve -greedy prices it): the
	// combined request is refused rather than silently dropping the knob.
	if _, status := postSolve(t, ts, "?tree=1&greedy=1", instanceJSON(t, p)); status != http.StatusBadRequest {
		t.Fatalf("tree=1&greedy=1: status %d, want 400", status)
	}
	sr, status := postSolve(t, ts, "?tree=1", instanceJSON(t, p))
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if sr.Tree == "" || !strings.Contains(sr.Tree, "test") {
		t.Fatalf("tree missing: %q", sr.Tree)
	}
	if sr.FirstAction == "" {
		t.Fatal("first action missing")
	}
}

// TestRetiredSurfaceNamesReplacement: every engine, mode and knob the
// service no longer takes is a 400 whose body says where it went.
func TestRetiredSurfaceNamesReplacement(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := instanceJSON(t, workload.MedicalDiagnosis(3, 4))
	batch := batchJSON(t, []*core.Problem{workload.MedicalDiagnosis(3, 4)})
	cases := []struct {
		path, query string
		body        []byte
		want        []string
	}{
		{"/v1/solve", "?engine=lockstep", body, []string{"omit engine=", "ttsolve -engine"}},
		{"/v1/solve", "?engine=goroutine", body, []string{"omit engine=", "ttsolve -engine"}},
		{"/v1/solve", "?engine=ccc", body, []string{"omit engine=", "ttsolve -engine"}},
		{"/v1/solve", "?engine=bvm", body, []string{"omit engine=", "ttsolve -engine"}},
		{"/v1/policy", "?engine=bvm", body, []string{"omit engine=", "ttsolve -engine"}},
		{"/v1/solve", "?engine=cluster", body, []string{"omit engine="}},
		{"/v1/policy", "?engine=cluster", body, []string{"omit engine="}},
		{"/v1/solve", "?certify=off", body, []string{`\"fast\" mode`, "ttserve -certify"}},
		{"/v1/solve", "?certify=audit", body, []string{`\"fast\" mode`, "ttserve -certify"}},
		{"/v1/solve/batch", "?certify=off", batch, []string{`\"fast\" mode`, "ttserve -certify"}},
		{"/v1/policy", "?certify=off", body, []string{`\"fast\" mode`, "ttserve -certify"}},
		{"/v1/solve", "?greedy=1", body, []string{"ttsolve -greedy"}},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+tc.path+tc.query, "application/json", bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s%s: status %d, want 400", tc.path, tc.query, resp.StatusCode)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(string(msg), w) {
				t.Errorf("%s%s: body %s does not name %q", tc.path, tc.query, msg, w)
			}
		}
	}
}

func TestSolveRejectsOversizedWith422(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxK: 6})
	p := workload.Random(3, 8, 4, 4) // K=8 > MaxK=6
	if _, status := postSolve(t, ts, "", instanceJSON(t, p)); status != http.StatusUnprocessableEntity {
		t.Fatalf("oversized instance: status %d, want 422", status)
	}
	if got := s.Metrics().RejectOversize.Load(); got != 1 {
		t.Fatalf("reject_oversize = %d, want 1", got)
	}
	if got := s.Metrics().Solves.Load(); got != 0 {
		t.Fatalf("oversized instances reached a solver (%d runs)", got)
	}
}

func TestSolveBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, tc := range map[string]struct {
		query string
		body  string
	}{
		"malformed json":  {"", "{nope"},
		"invalid weights": {"", `{"weights": [], "actions": []}`},
		"unknown engine":  {"?engine=quantum", `{"weights":[1,1],"actions":[{"objects":[0],"cost":1,"treatment":true},{"objects":[1],"cost":1,"treatment":true}]}`},
		"bad timeout":     {"?timeout_ms=never", `{"weights":[1,1],"actions":[{"objects":[0],"cost":1,"treatment":true},{"objects":[1],"cost":1,"treatment":true}]}`},
	} {
		if _, status := postSolve(t, ts, tc.query, []byte(tc.body)); status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, status)
		}
	}
}

// TestBodyOverLimitIs413 sends each instance endpoint a body one byte past
// maxBodyBytes: a well-formed instance padded with whitespace, so only its
// size is wrong. The same body one byte shorter is accepted.
func TestBodyOverLimitIs413(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	p := workload.MedicalDiagnosis(1, 5)
	var batch bytes.Buffer
	if err := instio.WriteBatch(&batch, []*core.Problem{p}, ""); err != nil {
		t.Fatal(err)
	}
	for path, body := range map[string][]byte{
		"/v1/solve":       instanceJSON(t, p),
		"/v1/solve/batch": batch.Bytes(),
		"/v1/policy":      instanceJSON(t, p),
	} {
		for pad, want := range map[int]int{
			maxBodyBytes - len(body):     http.StatusOK,
			maxBodyBytes - len(body) + 1: http.StatusRequestEntityTooLarge,
		} {
			padded := append(bytes.Clone(body), bytes.Repeat([]byte(" "), pad)...)
			resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(padded))
			if err != nil {
				t.Fatal(err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != want {
				t.Errorf("%s, %d-byte body: status %d, want %d: %s", path, len(padded), resp.StatusCode, want, msg)
			}
			if want == http.StatusRequestEntityTooLarge && !strings.Contains(string(msg), "too large") {
				t.Errorf("%s: 413 body does not say the body is too large: %s", path, msg)
			}
		}
	}
}

func TestSolveInadequateInstance(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// No treatment can reach object 1: C(U) = Inf.
	body := []byte(`{"weights":[5,5],"actions":[{"objects":[0],"cost":1,"treatment":true},{"objects":[0],"cost":2}]}`)
	sr, status := postSolve(t, ts, "", body)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if sr.Adequate || sr.Cost != nil || sr.Tree != "" {
		t.Fatalf("inadequate instance misreported: %+v", sr)
	}
}

func TestEvalPolicyRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	p := workload.FaultLocation(17, 7, 3)
	sol, err := core.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := core.NewPolicy(p, sol)
	if err != nil {
		t.Fatal(err)
	}
	req, err := json.Marshal(map[string]any{"policy": pol, "weights": p.Weights})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/eval", "application/json", bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var er EvalResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.Cost != sol.Cost {
		t.Fatalf("eval cost %d, want %d", er.Cost, sol.Cost)
	}
	if er.States != pol.States() || er.Nodes == 0 || er.Depth == 0 {
		t.Fatalf("eval shape wrong: %+v", er)
	}

	// Shifted weights re-price the same tree; the tree stays valid.
	shifted := append([]uint64(nil), p.Weights...)
	shifted[0] += 10
	wantShifted, err := core.TreeCostWithWeights(p, mustTree(t, pol), shifted)
	if err != nil {
		t.Fatal(err)
	}
	req2, _ := json.Marshal(map[string]any{"policy": pol, "weights": shifted})
	resp2, err := http.Post(ts.URL+"/v1/eval", "application/json", bytes.NewReader(req2))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var er2 EvalResponse
	if err := json.NewDecoder(resp2.Body).Decode(&er2); err != nil {
		t.Fatal(err)
	}
	if er2.Cost != wantShifted {
		t.Fatalf("shifted eval cost %d, want %d", er2.Cost, wantShifted)
	}
}

func mustTree(t *testing.T, pol *core.Policy) *core.Node {
	t.Helper()
	tree, err := pol.Tree()
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestEvalBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, body := range map[string]string{
		"malformed":      "{",
		"missing policy": `{"weights":[1,2]}`,
		"weight length":  `{"policy":{"k":2,"actions":[{"objects":[0,1],"cost":1,"treatment":true}],"choices":{"3":0}},"weights":[1]}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/eval", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

func TestHealthzAndDraining(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	s.SetDraining(true)
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: %d, want 503", resp.StatusCode)
	}
}

// TestRequestLogLine pins the request log's TextHandler line: its keys, their
// order and their value kinds, one line per request.
func TestRequestLogLine(t *testing.T) {
	var buf bytes.Buffer
	s := New(Config{Logger: slog.New(slog.NewTextHandler(&buf, nil))})
	defer s.Close()
	h := s.Handler()
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/healthz", nil))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/nowhere", nil))
	want := regexp.MustCompile(`^time=\S+ level=INFO msg=request id=1 method=GET path=/healthz status=200 dur_ms=[0-9.e-]+\n` +
		`time=\S+ level=INFO msg=request id=2 method=GET path=/nowhere status=404 dur_ms=[0-9.e-]+\n$`)
	if !want.Match(buf.Bytes()) {
		t.Fatalf("request log:\n%s\nwant lines matching %s", buf.Bytes(), want)
	}
}

func TestStatsAndDebugVars(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	p := workload.SystematicBiology(23, 6)
	if _, status := postSolve(t, ts, "", instanceJSON(t, p)); status != http.StatusOK {
		t.Fatalf("solve failed: %d", status)
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats["solves"].(float64) < 1 {
		t.Fatalf("stats missing solves: %v", stats)
	}
	hist, ok := stats["engine_latency"].(map[string]any)
	if !ok || hist["exact"] == nil {
		t.Fatalf("stats missing exact latency histogram: %v", stats)
	}

	// /debug/vars serves the expvar page (the global "ttserve" var is owned
	// by whichever server published first in this process).
	dv, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer dv.Body.Close()
	if dv.StatusCode != http.StatusOK {
		t.Fatalf("/debug/vars: %d", dv.StatusCode)
	}
	var vars map[string]any
	if err := json.NewDecoder(dv.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	if vars["ttserve"] == nil {
		t.Fatal("expvar page missing the ttserve var")
	}
}

func TestSolveTimeoutReturns504(t *testing.T) {
	// The 19 progress pauses of a K = 20 solve hold it past the deadline
	// however fast the sweep runs.
	s, ts := newTestServer(t, Config{DefaultTimeout: 5 * time.Millisecond, LevelDelay: time.Millisecond})
	p := workload.Random(29, 20, 40, 4)
	_, status := postSolve(t, ts, "?engine=parallel", instanceJSON(t, p))
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", status)
	}
	if got := s.Metrics().Timeouts.Load(); got != 1 {
		t.Fatalf("timeouts = %d, want 1", got)
	}
	// The flight table must not leak the timed-out call.
	deadline := time.Now().Add(2 * time.Second)
	for {
		s.mu.Lock()
		n := len(s.flights)
		s.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d flights still registered after timeout", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestLatencyHistogramBuckets(t *testing.T) {
	h := &latencyHist{}
	h.observe(500 * time.Microsecond) // <1ms
	h.observe(2 * time.Millisecond)   // <4ms
	h.observe(30 * time.Second)       // overflow
	snap := h.snapshot()
	buckets := snap["buckets"].(map[string]int64)
	if buckets["<1ms"] != 1 || buckets["<4ms"] != 1 || buckets[">=16s"] != 1 {
		t.Fatalf("buckets wrong: %v", buckets)
	}
	if snap["count"].(int64) != 3 {
		t.Fatalf("count wrong: %v", snap)
	}
}

func TestCanonicalizePreservesSemantics(t *testing.T) {
	p := workload.MedicalDiagnosis(31, 7)
	canon := Canonicalize(p)
	want, err := core.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.Solve(canon)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cost != want.Cost {
		t.Fatalf("canonicalization changed the optimum: %d vs %d", got.Cost, want.Cost)
	}
	if len(canon.Actions) != len(p.Actions) || canon.K != p.K {
		t.Fatal("canonicalization changed the instance shape")
	}
	// Idempotent.
	h1, _ := Hash(canon)
	h2, _ := Hash(Canonicalize(canon))
	if h1 != h2 {
		t.Fatal("canonicalization not idempotent")
	}
}

func ExampleHash() {
	p := &core.Problem{
		K:       2,
		Weights: []uint64{3, 1},
		Actions: []core.Action{
			{Name: "fix-1", Set: core.SetOf(1), Cost: 2, Treatment: true},
			{Name: "probe", Set: core.SetOf(0), Cost: 1},
			{Name: "fix-0", Set: core.SetOf(0), Cost: 2, Treatment: true},
		},
	}
	h, _ := Hash(Canonicalize(p))
	fmt.Println(len(h), "hex chars")
	// Output: 64 hex chars
}
