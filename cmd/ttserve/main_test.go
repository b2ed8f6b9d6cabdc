package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os/exec"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/instio"
	"repro/internal/serve"
	"repro/internal/workload"
)

// TestServeSmoke is the `make serve-smoke` sequence: boot the real service
// on a random port, fire a solve, a cache hit, an oversized reject, and a
// graceful shutdown, end to end through the binary's own run loop.
func TestServeSmoke(t *testing.T) {
	ready := make(chan string, 1)
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-max-k", "12"}, io.Discard, ready, stop)
	}()
	var url string
	select {
	case addr := <-ready:
		url = "http://" + addr
	case err := <-done:
		t.Fatalf("server exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}

	if status := getStatus(t, url+"/healthz"); status != http.StatusOK {
		t.Fatalf("healthz: %d", status)
	}

	p := workload.MedicalDiagnosis(5, 8)
	want, err := core.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := instio.Write(&buf, p, ""); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()

	// Solve, then the identical instance again: second answer must come
	// from the cache with the same cost.
	first := postSolve(t, url, body, http.StatusOK)
	if first.Cached || !first.Adequate || *first.Cost != want.Cost {
		t.Fatalf("first solve: %+v, want cost %d", first, want.Cost)
	}
	second := postSolve(t, url, body, http.StatusOK)
	if !second.Cached || *second.Cost != want.Cost {
		t.Fatalf("second solve not served from cache: %+v", second)
	}

	// Oversized (K=14 against -max-k 12): rejected with 422 before any
	// solver state is allocated.
	bigBuf := bytes.Buffer{}
	if err := instio.Write(&bigBuf, workload.Random(6, 14, 4, 4), ""); err != nil {
		t.Fatal(err)
	}
	postSolve(t, url, bigBuf.Bytes(), http.StatusUnprocessableEntity)

	// Graceful shutdown: the run loop drains and returns nil.
	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server never shut down")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-no-such-flag"}, io.Discard, nil, nil); err == nil {
		t.Fatal("bad flag accepted")
	}
	if err := run([]string{"-addr", "256.256.256.256:99999"}, io.Discard, nil, nil); err == nil {
		t.Fatal("unlistenable address accepted")
	}
	// A chaos spec naming no rung the server tries would inject nothing and
	// let a drill pass vacuously, so it fails startup and lists the rungs.
	for _, args := range [][]string{
		{"-chaos-fail-engine", "seq:1"},
		{"-chaos-fail-engine", "parallel"},
		{"-chaos-corrupt-engine", "exatc"},
	} {
		err := run(append([]string{"-addr", "127.0.0.1:0"}, args...), io.Discard, nil, nil)
		if err == nil || !strings.Contains(err.Error(), args[0]) || !strings.Contains(err.Error(), "exact or approx") {
			t.Errorf("%v: err %v, want a startup error naming %s and listing exact and approx", args, err, args[0])
		}
	}
}

// TestRunRejectsRetiredSettings: the settings the service no longer has fail
// startup instead of booting a server that refuses every request.
func TestRunRejectsRetiredSettings(t *testing.T) {
	for _, args := range [][]string{
		{"-certify", "off"},
		{"-engine", "bvm"},
		{"-engine", "cluster"},
		{"-engine", "seq"},
		{"-workers", "4"},
		{"-cluster", "127.0.0.1:7001"},
		{"-retries", "2"},
		{"-breaker-threshold", "3"},
		{"-no-fallback"},
		{"-checkpoint-dir", "/tmp/x"},
		{"-recover-timeout", "1s"},
	} {
		err := run(append([]string{"-addr", "127.0.0.1:0"}, args...), io.Discard, nil, nil)
		if err == nil || !strings.Contains(err.Error(), args[0]) {
			t.Errorf("%v: err %v, want a startup error naming %s", args, err, args[0])
		}
	}
}

func getStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

func postSolve(t *testing.T, url string, body []byte, wantStatus int) *serve.SolveResponse {
	t.Helper()
	resp, err := http.Post(url+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d, want %d: %s", resp.StatusCode, wantStatus, msg)
	}
	if wantStatus != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	var sr serve.SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	return &sr
}

// startServer launches the built binary on a random port and returns the
// running command plus its base URL, parsed from the ready log line.
func startServer(t *testing.T, bin string, extra ...string) (*exec.Cmd, string) {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if strings.Contains(line, "ttserve listening") {
				for _, f := range strings.Fields(line) {
					if a, ok := strings.CutPrefix(f, "addr="); ok {
						addrCh <- a
					}
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return cmd, "http://" + addr
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatal("server never logged its listen address")
		return nil, ""
	}
}

func getStats(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d", resp.StatusCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}
