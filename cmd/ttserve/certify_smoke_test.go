package main

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/instio"
	"repro/internal/workload"
)

// TestCertifySmoke is the `make certify-smoke` drill: the real ttserve binary
// runs with -certify=fast while a chaos hook silently corrupts the exact
// path's first answer. The contract under fire: zero wrong answers escape —
// the corrupted answer is refused with a 500 that names the refusal and is
// not cached, the re-ask solves afresh and serves the true optimum, the cache
// then holds only that certified answer, and the refusal shows in the stats.
func TestCertifySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives a real server process")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "ttserve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building ttserve: %v\n%s", err, out)
	}

	p := workload.MedicalDiagnosis(5, 6)
	want, err := core.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if err := instio.Write(&body, p, ""); err != nil {
		t.Fatal(err)
	}

	srv, url := startServer(t, bin, "-certify", "fast", "-chaos-corrupt-engine", "exact:1")
	defer func() {
		srv.Process.Signal(os.Interrupt)
		srv.Wait()
	}()

	// The first exact answer is corrupted: certification must refuse it, and
	// with approx off nothing else may answer.
	status, msg := postRaw(t, url, body.Bytes())
	if status != http.StatusInternalServerError || !strings.Contains(string(msg), "answer refused") {
		t.Fatalf("corrupted answer: status %d body %s, want a 500 naming the refusal", status, msg)
	}

	// Nothing was cached: the re-ask solves afresh and serves the true cost.
	sr := postSolve(t, url, body.Bytes(), http.StatusOK)
	if sr.Cached || sr.SolvedBy != "exact" || sr.Cost == nil || *sr.Cost != want.Cost {
		t.Fatalf("re-ask: cached=%v solved_by=%q cost=%v, want a fresh exact answer costing %d", sr.Cached, sr.SolvedBy, sr.Cost, want.Cost)
	}

	// The cache holds only the certified answer: the next ask is a hit.
	sr = postSolve(t, url, body.Bytes(), http.StatusOK)
	if !sr.Cached || sr.Cost == nil || *sr.Cost != want.Cost {
		t.Fatalf("third ask: cached=%v cost=%v, want cached hit of %d", sr.Cached, sr.Cost, want.Cost)
	}

	stats := getStats(t, url)
	if n, _ := stats["certify_fail"].(float64); n < 1 {
		t.Fatalf("certify_fail = %v, want >= 1 (stats: %v)", stats["certify_fail"], stats)
	}
	if n, _ := stats["certify_pass"].(float64); n < 1 {
		t.Fatalf("certify_pass = %v, want >= 1 (stats: %v)", stats["certify_pass"], stats)
	}
}

// postRaw posts an instance to /v1/solve and returns the status and body.
func postRaw(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	msg, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, msg
}
