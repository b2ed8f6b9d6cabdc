package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/instio"
	"repro/internal/workload"
)

// TestLoadConcurrentMixed is the service's acceptance load test (run under
// -race in CI): hundreds of concurrent requests over a mixed set of
// instances, verifying that every served cost equals core.Solve's, that each
// distinct instance is solved exactly once (everything else is a cache hit
// or a coalesced waiter), that deadline-exceeded requests get 504 with the
// solver goroutines actually stopped, and that graceful shutdown drains
// accepted requests.
func TestLoadConcurrentMixed(t *testing.T) {
	const (
		nInstances = 20
		nRequests  = 240
	)
	// LevelDelay's K−1 progress pauses hold the K = 20 solve past its 5 ms
	// deadline however fast the sweep runs; the K <= 15 solves pause too.
	s := New(Config{
		MaxConcurrent: 8,
		MaxPending:    256,
		LevelDelay:    time.Millisecond,
		Logger:        testLogger(),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)
	url := "http://" + ln.Addr().String()
	defer s.Close()
	defer hs.Close()

	baseGoroutines := runtime.NumGoroutine()

	// A mixed instance pool, solved locally for the expected costs.
	instances := make([]*core.Problem, nInstances)
	wantCost := make([]uint64, nInstances)
	for i := range instances {
		seed := int64(100 + i)
		switch i % 4 {
		case 0:
			instances[i] = workload.MedicalDiagnosis(seed, 7+i%3)
		case 1:
			instances[i] = workload.Logistics(seed, 7+i%3, 3)
		case 2:
			instances[i] = workload.FaultLocation(seed, 7+i%3, 2)
		default:
			instances[i] = workload.Random(seed, 8, 6, 4)
		}
		sol, err := core.Solve(instances[i])
		if err != nil {
			t.Fatal(err)
		}
		wantCost[i] = sol.Cost
	}

	client := &http.Client{Timeout: 30 * time.Second}
	var (
		ok504, okOK, ok422 atomic.Int64
		wg                 sync.WaitGroup
	)
	// engine= omitted and both names the one exact path still answers to.
	queries := []string{"", "?engine=seq", "?engine=parallel"}
	for r := 0; r < nRequests; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			switch {
			case r%60 == 58:
				// Oversized: valid per core (K <= core.MaxK) but over the
				// server's K budget — rejected at admission with 422.
				big := workload.Random(1, 22, 4, 4)
				_, status := postSolveClient(t, client, url, "", instanceJSONQuiet(big))
				if status == http.StatusUnprocessableEntity {
					ok422.Add(1)
				} else {
					t.Errorf("req %d: oversized got %d, want 422", r, status)
				}
			case r%60 == 59:
				// A huge instance with a tiny deadline: must 504 promptly.
				big := workload.Random(2, 20, 40, 4)
				start := time.Now()
				_, status := postSolveClient(t, client, url, "?engine=parallel&timeout_ms=5", instanceJSONQuiet(big))
				if status != http.StatusGatewayTimeout {
					t.Errorf("req %d: big instance got %d, want 504", r, status)
					return
				}
				if d := time.Since(start); d > 5*time.Second {
					t.Errorf("req %d: 504 took %v, deadline not enforced", r, d)
				}
				ok504.Add(1)
			default:
				i := r % nInstances
				p := permuted(rng, instances[i])
				query := queries[r%len(queries)]
				sr, status := postSolveClient(t, client, url, query, instanceJSONQuiet(p))
				if status != http.StatusOK {
					t.Errorf("req %d (%q): status %d", r, query, status)
					return
				}
				if sr.SolvedBy != "exact" {
					t.Errorf("req %d (%q): solved_by %q, want exact", r, query, sr.SolvedBy)
					return
				}
				if !sr.Adequate || sr.Cost == nil || *sr.Cost != wantCost[i] {
					t.Errorf("req %d: cost %v, want %d", r, sr.Cost, wantCost[i])
					return
				}
				okOK.Add(1)
			}
		}()
	}
	wg.Wait()

	wantOK := int64(nRequests - nRequests/60*2)
	if okOK.Load() != wantOK || ok504.Load() != int64(nRequests/60) || ok422.Load() != int64(nRequests/60) {
		t.Fatalf("outcomes: %d ok (want %d), %d timeouts, %d oversize",
			okOK.Load(), wantOK, ok504.Load(), ok422.Load())
	}

	// Exactly one solver run per distinct admissible instance: every other
	// successful request was a cache hit or coalesced onto the in-flight
	// solve. The timed-out big instance never caches, so its repeats add at
	// most n504 extra runs (or coalesced waiters, when they overlapped).
	m := s.Metrics()
	n504 := int64(nRequests / 60)
	solves := m.Solves.Load()
	if solves < nInstances || solves > nInstances+n504 {
		t.Fatalf("solver ran %d times for %d distinct instances (max %d)",
			solves, nInstances, nInstances+n504)
	}
	hits := m.CacheHits.Load() + m.Coalesced.Load()
	if minHits := wantOK - int64(nInstances); hits < minHits || hits > minHits+n504 {
		t.Fatalf("cache hits+coalesced = %d, want %d..%d", hits, minHits, minHits+n504)
	}
	if m.Timeouts.Load() != n504 {
		t.Fatalf("timeouts = %d, want %d", m.Timeouts.Load(), n504)
	}

	// The timed-out sweeps' worker goroutines must actually stop.
	client.CloseIdleConnections()
	waitForGoroutines(t, baseGoroutines+12)

	// Graceful shutdown: requests accepted before Shutdown complete with
	// 200; Shutdown returns only after they drain.
	slow := make([]*core.Problem, 6)
	slowCost := make([]uint64, len(slow))
	for i := range slow {
		slow[i] = workload.Random(int64(900+i), 15, 24, 8)
		sol, err := core.Solve(slow[i])
		if err != nil {
			t.Fatal(err)
		}
		slowCost[i] = sol.Cost
	}
	missesBefore := m.CacheMisses.Load()
	var drainWG sync.WaitGroup
	var drained atomic.Int64
	for i := range slow {
		i := i
		drainWG.Add(1)
		go func() {
			defer drainWG.Done()
			sr, status := postSolveClient(t, client, url, "?engine=parallel", instanceJSONQuiet(slow[i]))
			if status != http.StatusOK || *sr.Cost != slowCost[i] {
				t.Errorf("drain req %d: status %d", i, status)
				return
			}
			drained.Add(1)
		}()
	}
	// Shut down only once every request has been accepted by the handler
	// (each distinct drain instance registers one cache miss).
	accepted := time.Now().Add(10 * time.Second)
	for m.CacheMisses.Load() < missesBefore+int64(len(slow)) {
		if time.Now().After(accepted) {
			t.Fatal("drain requests never reached the handler")
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.SetDraining(true)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	drainWG.Wait()
	if drained.Load() != int64(len(slow)) {
		t.Fatalf("only %d/%d in-flight requests drained", drained.Load(), len(slow))
	}
	s.Close()
}

// waitForGoroutines polls until the process goroutine count falls to the
// limit, failing after a generous deadline — the check that cancelled
// sweeps do not leak their worker pools.
func waitForGoroutines(t *testing.T, limit int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= limit {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines still alive (limit %d)\n%s",
				runtime.NumGoroutine(), limit, buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
		time.Sleep(20 * time.Millisecond)
	}
}

func instanceJSONQuiet(p *core.Problem) []byte {
	var buf bytes.Buffer
	if err := instio.Write(&buf, p, ""); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func postSolveClient(t *testing.T, client *http.Client, url, query string, body []byte) (*SolveResponse, int) {
	t.Helper()
	resp, err := client.Post(url+"/v1/solve"+query, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Errorf("post: %v", err)
		return nil, 0
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, resp.StatusCode
	}
	var sr SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Errorf("decode: %v", err)
		return nil, resp.StatusCode
	}
	return &sr, resp.StatusCode
}
