package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"testing"
	"time"

	"repro/internal/approx"
	"repro/internal/chaos"
	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/workload"
)

// startClusterFleet boots n in-process honest cluster workers on loopback
// listeners and returns their addresses.
func startClusterFleet(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		id := fmt.Sprintf("w%d", i)
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = cluster.Serve(ln, func() cluster.Machine { return cluster.NewHonestMachine(id) }, testLogger())
		}()
		t.Cleanup(func() {
			_ = ln.Close()
			<-done
		})
		addrs[i] = ln.Addr().String()
	}
	return addrs
}

// TestClusterEngineThroughServer runs the distributed engine end to end
// behind the normal serving path: admission, certify-before-cache, and the
// response envelope all see "cluster" as just another engine.
func TestClusterEngineThroughServer(t *testing.T) {
	addrs := startClusterFleet(t, 3)
	s, ts := newTestServer(t, Config{ClusterWorkers: addrs})
	p := workload.MedicalDiagnosis(7, 8)
	want, err := core.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	sr, status := postSolve(t, ts, "?engine=cluster&tree=1", instanceJSON(t, p))
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if sr.SolvedBy != "cluster" {
		t.Fatalf("solved_by %q, want cluster", sr.SolvedBy)
	}
	if sr.Cost == nil || *sr.Cost != want.Cost {
		t.Fatalf("cluster cost %v, want %d", sr.Cost, want.Cost)
	}
	if sr.Tree == "" {
		t.Fatal("cluster solve returned no procedure tree")
	}
	if s.metrics.ClusterSolves.Load() == 0 || s.metrics.ClusterPlanes.Load() == 0 {
		t.Fatalf("cluster counters solves=%d planes=%d, want both > 0",
			s.metrics.ClusterSolves.Load(), s.metrics.ClusterPlanes.Load())
	}
	if s.metrics.CertifyPass.Load() == 0 {
		t.Fatal("cluster answer was not certified")
	}
}

// TestClusterFallbackOnDeadFleet: an unreachable fleet is an engine fault,
// not an outage — the chain degrades to the in-process engines and the
// answer is still right.
func TestClusterFallbackOnDeadFleet(t *testing.T) {
	s, ts := newTestServer(t, Config{
		ClusterWorkers: []string{"127.0.0.1:1"}, // nothing listens here
		Retries:        -1,
	})
	p := workload.MedicalDiagnosis(3, 6)
	want, err := core.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	sr, status := postSolve(t, ts, "?engine=cluster", instanceJSON(t, p))
	if status != http.StatusOK || sr.SolvedBy != "parallel" {
		t.Fatalf("status %d solved_by %q, want 200/parallel", status, sr.SolvedBy)
	}
	if sr.Cost == nil || *sr.Cost != want.Cost {
		t.Fatalf("fallback cost %v, want %d", sr.Cost, want.Cost)
	}
	if s.metrics.Fallbacks.Load() == 0 {
		t.Fatal("dead fleet did not count as a fallback")
	}
}

// TestClusterUnconfiguredFailsClosed: selecting the cluster engine on a
// server with no fleet and no fallback is a refusal, not a hang.
func TestClusterUnconfiguredFailsClosed(t *testing.T) {
	_, ts := newTestServer(t, Config{DisableFallback: true, Retries: -1})
	p := workload.MedicalDiagnosis(3, 6)
	_, status := postSolve(t, ts, "?engine=cluster", instanceJSON(t, p))
	if status != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", status)
	}
}

// TestBackoffDelayClamp pins the retry pacing contract: every delay is at
// least the attempt's base and never exceeds the 1s ceiling, no matter how
// high the attempt count climbs.
func TestBackoffDelayClamp(t *testing.T) {
	for attempt := 0; attempt <= 30; attempt++ {
		base := 10 * time.Millisecond << uint(min(attempt, 6))
		for trial := 0; trial < 50; trial++ {
			d := backoffDelay(attempt)
			if d > time.Second {
				t.Fatalf("attempt %d: delay %v exceeds the 1s clamp", attempt, d)
			}
			if d < min(base, time.Second) {
				t.Fatalf("attempt %d: delay %v below base %v", attempt, d, base)
			}
		}
	}
}

// TestRetryLatencyBounded: a permanently failing engine with fallback
// disabled must exhaust its retries within the sum of the clamped backoffs —
// the serve path may be unlucky, never unbounded.
func TestRetryLatencyBounded(t *testing.T) {
	const retries = 3
	s, _ := newTestServer(t, Config{
		Retries:          retries,
		DisableFallback:  true,
		BreakerThreshold: -1, // keep every attempt live: the backoff sum is under test
		EngineFault:      func(string) error { return errors.New("permanently down") },
	})
	canon := Canonicalize(workload.MedicalDiagnosis(3, 6))
	hash, err := Hash(canon)
	if err != nil {
		t.Fatal(err)
	}
	// Worst case: retries sleeps of backoffDelay(0..retries-1), each at most
	// twice its base — everything else is compute.
	var budget time.Duration
	for a := 0; a < retries; a++ {
		budget += min(2*(10*time.Millisecond<<uint(a)), time.Second)
	}
	budget += 2 * time.Second // compute + scheduling headroom
	start := time.Now()
	_, err = s.solveResilient(context.Background(), hash, canon, "seq", approx.Spec{Raw: "off"})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("permanently failing engine returned an answer")
	}
	if elapsed > budget {
		t.Fatalf("retry loop took %v, want <= %v", elapsed, budget)
	}
	if got := s.metrics.Retries.Load(); got != retries {
		t.Fatalf("retries = %d, want %d", got, retries)
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
