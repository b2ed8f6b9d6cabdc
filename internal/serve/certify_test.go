package serve

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// corruptFirstExact silently corrupts the exact path's first answer.
func corruptFirstExact() func(string) bool {
	var fired atomic.Bool
	return func(rung string) bool { return rung == "exact" && fired.CompareAndSwap(false, true) }
}

// TestCertifyCorruptAnswerNeverServedOrCached is the serving half of the
// silent-corruption defense: a chaos hook corrupts the exact path's first
// answer, and certification must refuse it — the request is a 500 naming the
// refusal, the corrupt answer is never cached, the re-ask solves afresh and
// serves the correct cost, and the counters record the refusal.
func TestCertifyCorruptAnswerNeverServedOrCached(t *testing.T) {
	p := workload.MedicalDiagnosis(4, 6)
	s, ts := newTestServer(t, Config{ResultFault: corruptFirstExact()})
	want, err := core.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(instanceJSON(t, p)))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(msg), "answer refused") {
		t.Fatalf("corrupted answer: status %d body %s, want a 500 naming the refusal", resp.StatusCode, msg)
	}
	if n := s.CacheLen(); n != 0 {
		t.Fatalf("%d entries cached after a refused answer, want 0", n)
	}
	if got := s.Metrics().CertifyFail.Load(); got != 1 {
		t.Fatalf("certify_fail = %d, want 1", got)
	}
	sr, code := postSolve(t, ts, "", instanceJSON(t, p))
	if code != http.StatusOK || sr.Cached || sr.SolvedBy != "exact" {
		t.Fatalf("re-ask: status %d cached %v solved_by %q, want a fresh 200 from exact", code, sr.Cached, sr.SolvedBy)
	}
	if sr.Cost == nil || *sr.Cost != want.Cost {
		t.Fatalf("served cost %v, want %v", sr.Cost, want.Cost)
	}
	if got := s.Metrics().CertifyPass.Load(); got == 0 {
		t.Fatal("no certification pass was recorded")
	}
	// The cache must hold only certified answers: a re-ask is a hit and
	// still carries the right cost.
	again, _ := postSolve(t, ts, "", instanceJSON(t, p))
	if !again.Cached || *again.Cost != want.Cost {
		t.Fatalf("re-ask: cached=%v cost=%v, want cached hit of %d", again.Cached, *again.Cost, want.Cost)
	}
}

// TestCertifyAllEnginesCorruptFailsClosed: when both rungs produce a corrupt
// answer, even a request that enabled approx gets a 5xx and nothing is
// cached — a wrong answer never escapes, which is the whole contract.
func TestCertifyAllEnginesCorruptFailsClosed(t *testing.T) {
	p := workload.MedicalDiagnosis(4, 6)
	s, ts := newTestServer(t, Config{
		ResultFault: func(string) bool { return true },
	})
	_, code := postSolve(t, ts, "?approx=2", instanceJSON(t, p))
	if code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", code)
	}
	if n := s.CacheLen(); n != 0 {
		t.Fatalf("%d corrupt entries cached, want 0", n)
	}
	if got := s.Metrics().CertifyFail.Load(); got != 2 {
		t.Fatalf("certify_fail = %d, want 2 (exact, then approx)", got)
	}
}

// TestCertifyInvalidModeRejected: certify= is not a request parameter, so
// even an unknown value is a 400, not a silent fallback.
func TestCertifyInvalidModeRejected(t *testing.T) {
	p := workload.MedicalDiagnosis(3, 4)
	_, ts := newTestServer(t, Config{})
	if _, code := postSolve(t, ts, "?certify=paranoid", instanceJSON(t, p)); code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", code)
	}
}

// TestCertifyModeOffConfigCertifiesFast: a Config asking for "off" gets the
// warn-and-use-fast path like any invalid mode, so a corrupted answer is
// still refused and the next reply names fast.
func TestCertifyModeOffConfigCertifiesFast(t *testing.T) {
	p := workload.MedicalDiagnosis(4, 6)
	s, ts := newTestServer(t, Config{CertifyMode: "off", ResultFault: corruptFirstExact()})
	if _, code := postSolve(t, ts, "", instanceJSON(t, p)); code != http.StatusInternalServerError {
		t.Fatalf("corrupted answer: status %d, want 500", code)
	}
	if s.Metrics().CertifyFail.Load() == 0 {
		t.Fatal("corrupted answer was not refused")
	}
	sr, code := postSolve(t, ts, "", instanceJSON(t, p))
	if code != http.StatusOK || sr.CertifyMode != "fast" || sr.SolvedBy != "exact" {
		t.Fatalf("status %d certify_mode %q solved_by %q, want 200/fast/exact", code, sr.CertifyMode, sr.SolvedBy)
	}
}
