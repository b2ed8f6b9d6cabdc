package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/workload"
)

var errInjected = errors.New("injected engine fault")

// TestFallbackOnEngineFailure: with approx enabled, a persistently failing
// exact path must not fail the request — approx answers it (proven optimal
// at this size, so with the exact cost), the response reports both the
// dispatched and the solving rung, and the failure and fallback are counted.
func TestFallbackOnEngineFailure(t *testing.T) {
	s, ts := newTestServer(t, Config{
		EngineFault: chaos.FailFirst("exact", 1<<30, errInjected),
	})
	p := workload.MedicalDiagnosis(3, 6)
	want, err := core.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	sr, status := postSolve(t, ts, "?approx=1", instanceJSON(t, p))
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if sr.Engine != "exact" || sr.SolvedBy != "approx" {
		t.Fatalf("engine %q solved_by %q, want exact/approx", sr.Engine, sr.SolvedBy)
	}
	if sr.Cost == nil || *sr.Cost != want.Cost {
		t.Fatalf("fallback cost %v, want %d", sr.Cost, want.Cost)
	}
	if s.metrics.Fallbacks.Load() == 0 || s.metrics.EngineFailures.Load() == 0 {
		t.Fatalf("fallbacks=%d engine_failures=%d, want both > 0",
			s.metrics.Fallbacks.Load(), s.metrics.EngineFailures.Load())
	}
}

// TestEngineFaultsDoNotOutlastThemselves: a fault fails only the request
// that hit it. Under the default Config, three injected exact faults on one
// instance are three 500s naming the fault; the next request, for another
// instance, is answered — no earlier failure refuses it.
func TestEngineFaultsDoNotOutlastThemselves(t *testing.T) {
	s, ts := newTestServer(t, Config{EngineFault: chaos.FailFirst("exact", 3, errInjected)})
	body := instanceJSON(t, workload.MedicalDiagnosis(3, 6))
	for i := 0; s.metrics.EngineFailures.Load() < 3; i++ {
		if i == 3 {
			t.Fatalf("%d requests fired the hook only %d times", i, s.metrics.EngineFailures.Load())
		}
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError ||
			!strings.Contains(string(msg), "exact: injected") || strings.Contains(string(msg), "%!w") {
			t.Fatalf("faulted request %d: status %d body %s, want a 500 naming %q", i, resp.StatusCode, msg, "exact: injected")
		}
	}
	sr, status := postSolve(t, ts, "", instanceJSON(t, workload.MedicalDiagnosis(4, 6)))
	if status != http.StatusOK || sr.SolvedBy != "exact" {
		t.Fatalf("request after the faults: status %d, want 200 from exact", status)
	}
}

// TestPanicIsolation: a solve that panics is one failed attempt, never a
// crashed process. An exact panic is a 500 when the request did not enable
// approx and falls back to approx when it did; either way the same server
// then answers the next request from exact.
func TestPanicIsolation(t *testing.T) {
	for _, tc := range []struct {
		query  string
		status int
	}{
		{"", http.StatusInternalServerError},
		{"?approx=1", http.StatusOK},
	} {
		s, ts := newTestServer(t, Config{EngineFault: chaos.PanicFirst("exact", 1, "chaos panic")})
		sr, status := postSolve(t, ts, tc.query, instanceJSON(t, workload.MedicalDiagnosis(5, 6)))
		if status != tc.status || (status == http.StatusOK && sr.SolvedBy != "approx") {
			t.Fatalf("%q: exact panic: status %d, want %d (solved_by approx on 200)", tc.query, status, tc.status)
		}
		if got := s.metrics.EngineFailures.Load(); got != 1 {
			t.Fatalf("%q: exact panic: engine_failures = %d, want 1", tc.query, got)
		}
		if sr, status := postSolve(t, ts, tc.query, instanceJSON(t, workload.MedicalDiagnosis(6, 6))); status != http.StatusOK || sr.SolvedBy != "exact" {
			t.Fatalf("%q: after the panic: status %d, want 200 from exact", tc.query, status)
		}
	}
}

// TestShedRetryAfter: a full admission queue sheds with a Retry-After
// derived from queue depth, and a draining server sheds immediately; both
// land in their own stats counter. The chaos LevelDelay holds the queue
// slot: it pauses the slow solve at each of its K-1 level barriers.
func TestShedRetryAfter(t *testing.T) {
	s, ts := newTestServer(t, Config{
		MaxConcurrent: 1,
		MaxPending:    1,
		LevelDelay:    100 * time.Millisecond,
	})
	slow := workload.MedicalDiagnosis(17, 8)
	done := make(chan time.Duration, 1)
	go func() {
		start := time.Now()
		defer func() { done <- time.Since(start) }()
		postSolve(t, ts, "", instanceJSON(t, slow))
	}()
	// Wait until the slow solve holds the queue slot, then overflow it with
	// distinct instances (distinct so the probes can't answer from cache).
	deadline := time.Now().Add(2 * time.Second)
	for s.pending.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow solve never admitted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	var resp *http.Response
	for seed := int64(100); ; seed++ {
		if time.Now().After(deadline) {
			t.Fatal("never shed")
		}
		var err error
		resp, err = http.Post(ts.URL+"/v1/solve", "application/json",
			bytes.NewReader(instanceJSON(t, workload.MedicalDiagnosis(seed, 7))))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		resp.Body.Close()
		time.Sleep(10 * time.Millisecond)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	resp.Body.Close()
	if err != nil || ra < 1 || ra > 60 {
		t.Fatalf("Retry-After %q outside [1,60]", resp.Header.Get("Retry-After"))
	}
	if s.metrics.RejectBusy.Load() == 0 {
		t.Fatal("busy shed not counted")
	}
	if took, want := <-done, time.Duration(slow.K-1)*s.cfg.LevelDelay; took < want {
		t.Fatalf("slow solve took %v, want at least %v of level delays", took, want)
	}

	s.SetDraining(true)
	resp, err = http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(instanceJSON(t, slow)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("draining: status %d Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if s.metrics.RejectDraining.Load() != 1 {
		t.Fatalf("reject_draining = %d, want 1", s.metrics.RejectDraining.Load())
	}
}

// TestLevelDelaySkipsBatch: the chaos LevelDelay pauses single exact solves
// only. core.SolveBatchCtx takes no progress hook, so under an hour-long
// delay a batch — three re-priced variants and an unrelated instance — is
// still answered by the batch path, while a single solve is held until its
// deadline.
func TestLevelDelaySkipsBatch(t *testing.T) {
	_, ts := newTestServer(t, Config{LevelDelay: time.Hour})
	group := sameLatticeVariants(rand.New(rand.NewSource(3)), workload.MedicalDiagnosis(3, 6), 3)
	batch := append(group, workload.BinaryTestingUniform(6, 5))
	br, status := postBatch(t, ts, "?timeout_ms=10000", batchJSON(t, batch))
	if status != http.StatusOK {
		t.Fatalf("batch status %d", status)
	}
	if br.Fallbacks != 0 {
		t.Fatalf("fallbacks %d, want no fallback", br.Fallbacks)
	}
	for i, it := range br.Items {
		if it.SolvedBy != "batch" || it.Error != "" {
			t.Fatalf("instance %d: solved_by %q error %q, want batch", i, it.SolvedBy, it.Error)
		}
	}
	if _, status := postSolve(t, ts, "?timeout_ms=50", instanceJSON(t, workload.MedicalDiagnosis(4, 6))); status != http.StatusGatewayTimeout {
		t.Fatalf("single solve under the delay: status %d, want 504", status)
	}
}

// TestCacheByteBudget: the LRU evicts by total estimated bytes, refuses
// entries larger than the whole budget, and keeps its accounting exact.
func TestCacheByteBudget(t *testing.T) {
	mk := func(hash string, b int64) *cacheEntry { return &cacheEntry{hash: hash, key: hash, bytes: b} }
	c := newLRU(100, 1000)
	c.add(mk("a", 400))
	c.add(mk("b", 400))
	if c.get("a") == nil || c.totalBytes != 800 {
		t.Fatalf("bytes = %d, want 800", c.totalBytes)
	}
	c.add(mk("c", 400)) // 1200 > 1000: evict LRU ("b": "a" was touched by get)
	if c.get("b") != nil || c.get("a") == nil || c.get("c") == nil {
		t.Fatal("wrong eviction under byte pressure")
	}
	if c.totalBytes != 800 {
		t.Fatalf("bytes = %d after eviction, want 800", c.totalBytes)
	}
	c.add(mk("huge", 5000)) // larger than the whole budget: not cached
	if c.get("huge") != nil || c.totalBytes != 800 {
		t.Fatalf("oversized entry cached (bytes %d)", c.totalBytes)
	}
	c.add(mk("a", 700)) // refresh grows in place and evicts to fit
	if c.totalBytes > 1000 {
		t.Fatalf("refresh overran budget: %d", c.totalBytes)
	}
	if c.get("a") == nil {
		t.Fatal("refreshed entry evicted")
	}
	// An entry landing through the real solve path carries a real estimate.
	p := workload.MedicalDiagnosis(3, 6)
	ent := &cacheEntry{hash: "real", canon: p}
	if entryBytes(ent) <= 160 {
		t.Fatalf("entryBytes = %d, want > struct overhead", entryBytes(ent))
	}
}

// TestStatsExposeResilience: /v1/stats carries the resilience counters and
// gauges end to end.
func TestStatsExposeResilience(t *testing.T) {
	_, ts := newTestServer(t, Config{
		EngineFault: chaos.FailFirst("exact", 1<<30, errInjected),
	})
	if _, status := postSolve(t, ts, "?approx=1", instanceJSON(t, workload.MedicalDiagnosis(3, 5))); status != http.StatusOK {
		t.Fatalf("status %d", status)
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
	for _, key := range []string{"cache_bytes", "cache_entries", "fallbacks", "engine_failures", "reject_draining", "pending"} {
		if _, ok := stats[key]; !ok {
			t.Errorf("stats missing %q", key)
		}
	}
	for _, key := range []string{"breakers", "breaker_rejects", "retries", "cluster_solves", "approx_fallback",
		"checkpoint_levels", "checkpoint_errors", "checkpoints_resumed", "checkpoints_discarded"} {
		if _, ok := stats[key]; ok {
			t.Errorf("stats still carry retired key %q", key)
		}
	}
	if stats["fallbacks"].(float64) != 1 || stats["engine_failures"].(float64) != 1 {
		t.Fatalf("fallbacks=%v engine_failures=%v, want 1/1", stats["fallbacks"], stats["engine_failures"])
	}
	if stats["cache_bytes"].(float64) <= 0 {
		t.Fatal("cache_bytes not positive after a cached solve")
	}
}
