package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/instio"
	"repro/internal/serve"
	"repro/internal/workload"
)

// TestCertifySmoke is the `make certify-smoke` drill: the real ttserve binary
// runs with -certify=fast while a chaos hook silently corrupts every answer
// the parallel engine produces. The contract under fire: zero wrong answers
// escape — the corrupted answer is refused and the fallback chain serves the
// true optimum from seq, certification failures show up in the stats, and
// the cache holds only certified answers.
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

	srv, url := startServer(t, bin, "-certify", "fast", "-chaos-corrupt-engine", "parallel")
	defer func() {
		srv.Process.Signal(os.Interrupt)
		srv.Wait()
	}()

	// Parallel's every answer is corrupted: certification must refuse each
	// one and the fallback chain must deliver the true cost from seq.
	sr := postSolveEngine(t, url, "parallel", body.Bytes())
	if sr.SolvedBy != "seq" {
		t.Fatalf("solved_by %q, want seq: the corrupted parallel answer must be refused (%+v)", sr.SolvedBy, sr)
	}
	if sr.Cost == nil || *sr.Cost != want.Cost {
		t.Fatalf("parallel request served cost %v, want %d", sr.Cost, want.Cost)
	}

	// The cache must hold only certified answers: the re-ask is a hit and
	// still carries the true cost.
	sr = postSolveEngine(t, url, "parallel", body.Bytes())
	if !sr.Cached || sr.Cost == nil || *sr.Cost != want.Cost {
		t.Fatalf("re-ask: cached=%v cost=%v, want cached hit of %d", sr.Cached, sr.Cost, want.Cost)
	}

	stats := getStats(t, url)
	if n, _ := stats["certify_fail"].(float64); n < 1 {
		t.Fatalf("certify_fail = %v, want >= 1 (stats: %v)", stats["certify_fail"], stats)
	}
	if n, _ := stats["certify_pass"].(float64); n < 1 {
		t.Fatalf("certify_pass = %v, want >= 1 (stats: %v)", stats["certify_pass"], stats)
	}
}

// postSolveEngine posts an instance to /v1/solve?engine=... and decodes the
// 200 response.
func postSolveEngine(t *testing.T, url, engine string, body []byte) *serve.SolveResponse {
	t.Helper()
	resp, err := http.Post(url+"/v1/solve?engine="+engine, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("engine %s: status %d: %s", engine, resp.StatusCode, msg)
	}
	var sr serve.SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	return &sr
}
