package serve

import (
	"net/http"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// TestCertifyCorruptAnswerNeverServedOrCached is the serving half of the
// silent-corruption defense: a chaos hook corrupts every answer the parallel
// engine produces, and certification must refuse each one — the request is
// answered by the fallback chain (seq) with the correct cost, the corrupt answer is
// never cached, and the counters record the refusals.
func TestCertifyCorruptAnswerNeverServedOrCached(t *testing.T) {
	p := workload.MedicalDiagnosis(4, 6)
	s, ts := newTestServer(t, Config{
		ResultFault: func(engine string) bool { return engine == "parallel" },
	})
	want, err := core.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	sr, code := postSolve(t, ts, "?engine=parallel", instanceJSON(t, p))
	if code != http.StatusOK {
		t.Fatalf("parallel request: status %d", code)
	}
	if sr.SolvedBy != "seq" {
		t.Fatalf("solved_by %q, want seq: the corrupted parallel answer must be refused", sr.SolvedBy)
	}
	if sr.Cost == nil || *sr.Cost != want.Cost {
		t.Fatalf("served cost %v, want %v", sr.Cost, want.Cost)
	}
	if got := s.Metrics().CertifyFail.Load(); got == 0 {
		t.Fatal("no certification failure was recorded")
	}
	if got := s.Metrics().CertifyPass.Load(); got == 0 {
		t.Fatal("no certification pass was recorded")
	}
	// The cache must hold only certified answers: a re-ask is a hit and
	// still carries the right cost.
	again, _ := postSolve(t, ts, "?engine=parallel", instanceJSON(t, p))
	if !again.Cached || *again.Cost != want.Cost {
		t.Fatalf("re-ask: cached=%v cost=%v, want cached hit of %d", again.Cached, *again.Cost, want.Cost)
	}
}

// TestCertifyAllEnginesCorruptFailsClosed: when every engine in the chain
// produces a corrupt answer, the server returns 5xx and caches nothing — a
// wrong answer never escapes, which is the whole contract.
func TestCertifyAllEnginesCorruptFailsClosed(t *testing.T) {
	p := workload.MedicalDiagnosis(4, 6)
	s, ts := newTestServer(t, Config{
		ResultFault: func(string) bool { return true },
	})
	_, code := postSolve(t, ts, "?engine=parallel", instanceJSON(t, p))
	if code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", code)
	}
	if n := s.CacheLen(); n != 0 {
		t.Fatalf("%d corrupt entries cached, want 0", n)
	}
	if got := s.Metrics().CertifyFail.Load(); got == 0 {
		t.Fatal("no certification failure was recorded")
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
// still refused and the reply names fast.
func TestCertifyModeOffConfigCertifiesFast(t *testing.T) {
	p := workload.MedicalDiagnosis(4, 6)
	s, ts := newTestServer(t, Config{
		CertifyMode: "off",
		ResultFault: func(engine string) bool { return engine == "parallel" },
	})
	sr, code := postSolve(t, ts, "?engine=parallel", instanceJSON(t, p))
	if code != http.StatusOK || sr.CertifyMode != "fast" || sr.SolvedBy != "seq" {
		t.Fatalf("status %d certify_mode %q solved_by %q, want 200/fast/seq", code, sr.CertifyMode, sr.SolvedBy)
	}
	if s.Metrics().CertifyFail.Load() == 0 {
		t.Fatal("corrupted answer was not refused")
	}
}
