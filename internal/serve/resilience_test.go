package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/checkpoint"
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

// TestCheckpointLifecycle: a solve with a checkpoint directory writes level
// frontiers while running and removes the file once the answer exists.
func TestCheckpointLifecycle(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{CheckpointDir: dir})
	p := workload.MedicalDiagnosis(7, 9)
	if _, status := postSolve(t, ts, "?engine=seq", instanceJSON(t, p)); status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if got := s.metrics.CheckpointLevels.Load(); got != int64(p.K-1) {
		t.Fatalf("wrote %d levels, want %d", got, p.K-1)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("checkpoint residue after a finished solve: %v", ents)
	}
}

// TestCheckpointDiskFailureDoesNotFailSolve: persistence is best-effort in
// the serving path — a full disk costs durability, not answers.
func TestCheckpointDiskFailureDoesNotFailSolve(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{
		CheckpointDir: dir,
		CheckpointFS:  &chaos.FaultFS{FailWriteAt: 1, WriteErr: syscall.ENOSPC},
	})
	p := workload.MedicalDiagnosis(11, 8)
	want, err := core.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	sr, status := postSolve(t, ts, "?engine=seq", instanceJSON(t, p))
	if status != http.StatusOK || sr.Cost == nil || *sr.Cost != want.Cost {
		t.Fatalf("status %d cost %v, want 200/%d", status, sr.Cost, want.Cost)
	}
	if s.metrics.CheckpointErrors.Load() == 0 {
		t.Fatal("disk failure not counted")
	}
}

// TestCrashResume is the crash-recovery path end to end, in-process: a solve
// killed at a level barrier leaves its durable frontier; a freshly started
// server recovers it before serving, the instance is answered from cache,
// and the consumed checkpoint plus a planted corrupt one are cleaned up.
func TestCrashResume(t *testing.T) {
	dir := t.TempDir()
	canon := Canonicalize(workload.MedicalDiagnosis(13, 9))
	hash, err := Hash(canon)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Solve(canon)
	if err != nil {
		t.Fatal(err)
	}
	// "Crash": die right after level 5's durable write.
	w, err := checkpoint.NewWriter(nil, dir, canon, hash, "seq", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.SolveCheckpointedCtx(context.Background(), canon, nil, &chaos.Kill{Inner: w, Level: 5}); !errors.Is(err, chaos.ErrKilled) {
		t.Fatal(err)
	}
	// Plant garbage the scan must quarantine.
	if err := os.WriteFile(filepath.Join(dir, "junk.ckpt"), []byte("TTCKjunk"), 0o644); err != nil {
		t.Fatal(err)
	}

	s, ts := newTestServer(t, Config{CheckpointDir: dir})
	resumed, discarded, err := s.RecoverCheckpoints(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 1 || discarded != 1 {
		t.Fatalf("resumed=%d discarded=%d, want 1/1", resumed, discarded)
	}
	sr, status := postSolve(t, ts, "", instanceJSON(t, canon))
	if status != http.StatusOK || !sr.Cached || sr.Cost == nil || *sr.Cost != want.Cost {
		t.Fatalf("recovered instance: status %d cached %v cost %v, want cached %d", status, sr.Cached, sr.Cost, want.Cost)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("checkpoint dir not clean after recovery: %v", ents)
	}
	if s.metrics.CheckpointsResumed.Load() != 1 || s.metrics.CheckpointsDiscarded.Load() != 1 {
		t.Fatalf("resume counters %d/%d, want 1/1",
			s.metrics.CheckpointsResumed.Load(), s.metrics.CheckpointsDiscarded.Load())
	}
}

// TestRecoverMachineCheckpointOnDefaultEngine: a snapshot an older binary
// wrote with an engine the service no longer runs — a simulated machine
// (engine "bvm", a word width), the retired cluster plane, or the retired
// seq/parallel split — resumes its frontier on the exact path and installs
// the certified answer in the cache.
func TestRecoverMachineCheckpointOnDefaultEngine(t *testing.T) {
	canon := Canonicalize(workload.MedicalDiagnosis(14, 8))
	hash, err := Hash(canon)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Solve(canon)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		engine string
		width  int
	}{{"bvm", 24}, {"cluster", 0}, {"parallel", 0}} {
		dir := t.TempDir()
		w, err := checkpoint.NewWriter(nil, dir, canon, hash, tc.engine, tc.width)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.SolveCheckpointedCtx(context.Background(), canon, nil, &chaos.Kill{Inner: w, Level: 4}); !errors.Is(err, chaos.ErrKilled) {
			t.Fatal(err)
		}
		s, ts := newTestServer(t, Config{CheckpointDir: dir})
		resumed, discarded, err := s.RecoverCheckpoints(context.Background())
		if err != nil || resumed != 1 || discarded != 0 {
			t.Fatalf("%s: recovery resumed=%d discarded=%d err=%v, want 1/0", tc.engine, resumed, discarded, err)
		}
		sr, status := postSolve(t, ts, "", instanceJSON(t, canon))
		if status != http.StatusOK || !sr.Cached || sr.SolvedBy != "exact" || sr.Cost == nil || *sr.Cost != want.Cost {
			t.Fatalf("%s: recovered instance: status %d cached %v solved_by %q cost %v, want a cached exact answer costing %d",
				tc.engine, status, sr.Cached, sr.SolvedBy, sr.Cost, want.Cost)
		}
	}
}

// TestRecoverTimeoutBoundsSlowScan: a slow checkpoint disk must not stall
// startup forever. With RecoverTimeout set, recovery stops gracefully —
// no error, unfinished files left on disk for the next start — and without
// it the same directory recovers fully.
func TestRecoverTimeoutBoundsSlowScan(t *testing.T) {
	dir := t.TempDir()
	plant := func(seed int64) {
		canon := Canonicalize(workload.MedicalDiagnosis(seed, 6))
		hash, err := Hash(canon)
		if err != nil {
			t.Fatal(err)
		}
		w, err := checkpoint.NewWriter(nil, dir, canon, hash, "seq", 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.SolveCheckpointedCtx(context.Background(), canon, nil, &chaos.Kill{Inner: w, Level: 2}); !errors.Is(err, chaos.ErrKilled) {
			t.Fatal(err)
		}
	}
	plant(4)
	plant(5)

	slow, _ := newTestServer(t, Config{
		CheckpointDir:  dir,
		CheckpointFS:   &chaos.FaultFS{ReadDelay: 300 * time.Millisecond},
		RecoverTimeout: 100 * time.Millisecond,
	})
	start := time.Now()
	resumed, _, err := slow.RecoverCheckpoints(context.Background())
	if err != nil {
		t.Fatalf("budget expiry must be graceful, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("bounded recovery took %v", elapsed)
	}
	if resumed != 0 {
		t.Fatalf("resumed %d solves inside a 100ms budget", resumed)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 {
		t.Fatalf("%d checkpoints left on disk, want both untouched", len(ents))
	}

	// The same directory, unhurried: both interrupted solves finish.
	fresh, _ := newTestServer(t, Config{CheckpointDir: dir})
	resumed, discarded, err := fresh.RecoverCheckpoints(context.Background())
	if err != nil || resumed != 2 || discarded != 0 {
		t.Fatalf("full recovery = %d resumed, %d discarded, err %v; want 2/0/nil", resumed, discarded, err)
	}
}

// version1Checkpoint is a durable frontier in the version-1 layout an older
// binary wrote: the same meta and cost frames, a has_choice flag, and a
// trailing int32 argmin frame.
func version1Checkpoint(t *testing.T, canon *core.Problem, hash string, level int) []byte {
	t.Helper()
	sol, err := core.Solve(canon)
	if err != nil {
		t.Fatal(err)
	}
	img, err := checkpoint.Encode(canon, hash, "seq", 0, level, sol)
	if err != nil {
		t.Fatal(err)
	}
	metaJSON, rest, err := checkpoint.NextFrame(img[8:])
	if err != nil {
		t.Fatal(err)
	}
	costs, _, err := checkpoint.NextFrame(rest)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(metaJSON, &m); err != nil {
		t.Fatal(err)
	}
	m["has_choice"] = true
	if metaJSON, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	var choices []byte
	for range len(costs) / 8 {
		choices = binary.LittleEndian.AppendUint32(choices, 0)
	}
	out := binary.LittleEndian.AppendUint32(append([]byte(nil), img[:4]...), 1)
	return checkpoint.AppendFrame(checkpoint.AppendFrame(checkpoint.AppendFrame(out, metaJSON), costs), choices)
}

// TestVersion1CheckpointSolvesFromScratch: a checkpoint left by the older
// format is refused as corrupt — by the startup scan and by the per-solve
// resume lookup alike — and the instance is solved from scratch with the
// right answer.
func TestVersion1CheckpointSolvesFromScratch(t *testing.T) {
	canon := Canonicalize(workload.MedicalDiagnosis(13, 9))
	hash, err := Hash(canon)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Solve(canon)
	if err != nil {
		t.Fatal(err)
	}
	for _, scan := range []bool{false, true} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, hash+checkpoint.Ext), version1Checkpoint(t, canon, hash, 4), 0o644); err != nil {
			t.Fatal(err)
		}
		s, ts := newTestServer(t, Config{CheckpointDir: dir})
		if scan {
			resumed, discarded, err := s.RecoverCheckpoints(context.Background())
			if err != nil || resumed != 0 || discarded != 1 {
				t.Fatalf("recovery resumed=%d discarded=%d err=%v, want 0/1", resumed, discarded, err)
			}
		}
		sr, status := postSolve(t, ts, "?engine=seq", instanceJSON(t, canon))
		if status != http.StatusOK || sr.Cached || sr.Cost == nil || *sr.Cost != want.Cost {
			t.Fatalf("scan=%v: status %d cached %v cost %v, want a fresh solve costing %d",
				scan, status, sr.Cached, sr.Cost, want.Cost)
		}
	}
}

// TestShedRetryAfter: a full admission queue sheds with a Retry-After
// derived from queue depth, and a draining server sheds immediately; both
// land in their own stats counter.
func TestShedRetryAfter(t *testing.T) {
	s, ts := newTestServer(t, Config{
		MaxConcurrent: 1,
		MaxPending:    1,
		LevelDelay:    100 * time.Millisecond,
	})
	slow := workload.MedicalDiagnosis(17, 8)
	done := make(chan struct{})
	go func() {
		defer close(done)
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
	<-done

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
	for _, key := range []string{"cache_bytes", "cache_entries", "fallbacks", "engine_failures", "reject_draining", "checkpoint_levels", "pending"} {
		if _, ok := stats[key]; !ok {
			t.Errorf("stats missing %q", key)
		}
	}
	for _, key := range []string{"breakers", "breaker_rejects", "retries", "cluster_solves", "approx_fallback"} {
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
