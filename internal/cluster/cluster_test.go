package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/instio"
)

func randomProblem(rng *rand.Rand, k, nActions int) *core.Problem {
	p := &core.Problem{K: k, Weights: make([]uint64, k)}
	for j := range p.Weights {
		p.Weights[j] = uint64(rng.Intn(20) + 1)
	}
	u := uint32(core.Universe(k))
	for i := 0; i < nActions; i++ {
		p.Actions = append(p.Actions, core.Action{
			Set:       core.Set(rng.Intn(int(u))+1) & core.Set(u),
			Cost:      uint64(rng.Intn(30) + 1),
			Treatment: rng.Intn(2) == 0,
		})
	}
	p.Actions = append(p.Actions, core.Action{Set: core.Universe(k), Cost: 400, Treatment: true})
	return p
}

// startWorkers runs one in-process worker session per machine over loopback
// TCP — real conns, real deadlines — and returns the coordinator-side conns.
// wrap[i], when set, wraps the worker-side conn (fault injection on the
// worker's writes). Cleanup waits for every session goroutine, so a leaked
// session fails the test by hanging it.
func startWorkers(t *testing.T, machines []Machine, wrap []func(net.Conn) net.Conn) []net.Conn {
	t.Helper()
	conns := make([]net.Conn, len(machines))
	for i, m := range machines {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		done := make(chan struct{})
		w := func(c net.Conn) net.Conn { return c }
		if wrap != nil && wrap[i] != nil {
			w = wrap[i]
		}
		go func(m Machine, w func(net.Conn) net.Conn) {
			defer close(done)
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			_ = RunWorker(w(conn), m)
		}(m, w)
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		t.Cleanup(func() {
			_ = ln.Close()
			_ = conn.Close()
			<-done
		})
		conns[i] = conn
	}
	return conns
}

// fastOptions keeps the fault machinery on test timescales.
func fastOptions() Options {
	return Options{
		Slices:           4,
		PlaneDeadline:    300 * time.Millisecond,
		HandshakeTimeout: 2 * time.Second,
		HeartbeatEvery:   50 * time.Millisecond,
		HeartbeatMiss:    2,
		MaxStrikes:       2,
		AuditFraction:    1, // audit every cell: malicious planes are always caught
		Seed:             42,
	}
}

func assertIdentical(t *testing.T, seq, got *core.Solution) {
	t.Helper()
	if got == nil {
		t.Fatalf("no solution")
	}
	if got.Cost != seq.Cost {
		t.Fatalf("cost %d, sequential reference %d", got.Cost, seq.Cost)
	}
	for s := range seq.C {
		if got.C[s] != seq.C[s] {
			t.Fatalf("C[%d] = %d, sequential reference %d", s, got.C[s], seq.C[s])
		}
	}
}

// TestSolveMatchesSequential is the distributed plane's ground truth: across
// random instances, three honest workers must reproduce the sequential DP's
// tables bit for bit.
func TestSolveMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		k := rng.Intn(5) + 2 // 2..6
		p := randomProblem(rng, k, rng.Intn(8)+2)
		seq, err := core.Solve(p)
		if err != nil {
			t.Fatalf("sequential: %v", err)
		}
		conns := startWorkers(t, []Machine{
			NewHonestMachine("w0"), NewHonestMachine("w1"), NewHonestMachine("w2"),
		}, nil)
		got, stats, err := Solve(context.Background(), p, conns, fastOptions())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		assertIdentical(t, seq, got)
		if stats.Planes == 0 {
			t.Fatalf("trial %d: no planes merged", trial)
		}
		if len(stats.Violations) != 0 {
			t.Fatalf("trial %d: honest workers produced violations: %v", trial, stats.Violations)
		}
	}
}

// TestFaultMatrix drives every worker fault through the same assertions: the
// solve survives, the answer is bit-identical to the sequential reference,
// and the stats prove the fault was detected — not silently absorbed.
func TestFaultMatrix(t *testing.T) {
	p := randomProblem(rand.New(rand.NewSource(11)), 6, 8)
	seq, err := core.Solve(p)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}

	cases := []struct {
		name     string
		machines func() []Machine
		wrap     []func(net.Conn) net.Conn
		opts     func(*Options)
		check    func(t *testing.T, s Stats)
	}{
		{
			name: "offline",
			machines: func() []Machine {
				return []Machine{
					NewHonestMachine("w0"), NewHonestMachine("w1"),
					&OfflineMachine{Inner: NewHonestMachine("w2"), FailAfter: 1},
				}
			},
			check: func(t *testing.T, s Stats) {
				if s.WorkersLost == 0 {
					t.Errorf("offline worker not detected: %+v", s)
				}
				if s.Reassigned == 0 {
					t.Errorf("no slice reassigned after the crash: %+v", s)
				}
			},
		},
		{
			name: "malicious",
			machines: func() []Machine {
				return []Machine{
					NewHonestMachine("w0"), NewHonestMachine("w1"),
					&MaliciousMachine{Inner: NewHonestMachine("evil")},
				}
			},
			check: func(t *testing.T, s Stats) {
				if s.PlanesRejected == 0 {
					t.Errorf("malicious plane was not rejected: %+v", s)
				}
				if len(s.Violations) == 0 {
					t.Errorf("no violation evidence recorded")
				}
				for _, v := range s.Violations {
					if v.Node != "evil" {
						t.Errorf("violation attributed to %q, want evil: %v", v.Node, v)
					}
				}
			},
		},
		{
			name: "corrupt-plane",
			machines: func() []Machine {
				return []Machine{
					NewHonestMachine("w0"), NewHonestMachine("w1"),
					&CorruptPlaneMachine{Inner: NewHonestMachine("bitrot")},
				}
			},
			check: func(t *testing.T, s Stats) {
				if s.PlanesRejected == 0 {
					t.Errorf("corrupt plane was not rejected: %+v", s)
				}
				found := false
				for _, v := range s.Violations {
					if v.Node == "bitrot" && strings.Contains(v.Detail, "plane image rejected") {
						found = true
					}
				}
				if !found {
					t.Errorf("no corruption violation attributed to bitrot: %v", s.Violations)
				}
			},
		},
		{
			name: "slow",
			machines: func() []Machine {
				return []Machine{
					NewHonestMachine("w0"), NewHonestMachine("w1"),
					&SlowMachine{Inner: NewHonestMachine("laggard"), Delay: 2 * time.Second},
				}
			},
			opts: func(o *Options) {
				// Let the plane deadline, not the heartbeat reaper, be the
				// detector: a straggler is slow, not silent.
				o.HeartbeatEvery = 500 * time.Millisecond
				o.HeartbeatMiss = 10
			},
			check: func(t *testing.T, s Stats) {
				if s.Stragglers == 0 {
					t.Errorf("straggler deadline never fired: %+v", s)
				}
			},
		},
		{
			name: "partition",
			machines: func() []Machine {
				return []Machine{
					NewHonestMachine("w0"), NewHonestMachine("w1"), NewHonestMachine("ghost"),
				}
			},
			wrap: []func(net.Conn) net.Conn{
				nil, nil,
				// The partitioned worker gets its hello-ok out, then every
				// write silently vanishes: only deadlines and heartbeats can
				// tell it apart from a slow worker.
				func(c net.Conn) net.Conn { return chaos.PartitionConn(c, 1) },
			},
			check: func(t *testing.T, s Stats) {
				if s.WorkersLost == 0 {
					t.Errorf("partitioned worker never declared dead: %+v", s)
				}
			},
		},
		{
			name: "duplicate-frame",
			machines: func() []Machine {
				return []Machine{
					NewHonestMachine("w0"), NewHonestMachine("stutter"),
				}
			},
			wrap: []func(net.Conn) net.Conn{
				nil,
				// Write 2 is this worker's first plane; the duplicate must be
				// discarded as stale, not merged twice.
				func(c net.Conn) net.Conn { return &chaos.FaultyConn{Conn: c, DuplicateAt: 2} },
			},
			check: func(t *testing.T, s Stats) {
				if s.StalePlanes == 0 {
					t.Errorf("duplicated plane not discarded as stale: %+v", s)
				}
			},
		},
		{
			name: "truncate-mid-frame",
			machines: func() []Machine {
				return []Machine{
					NewHonestMachine("w0"), NewHonestMachine("torn"),
				}
			},
			wrap: []func(net.Conn) net.Conn{
				nil,
				// Write 2 (the first plane) is cut mid-frame and the conn goes
				// silent — the coordinator must reassign and reap, and must
				// never merge the half frame.
				func(c net.Conn) net.Conn { return &chaos.FaultyConn{Conn: c, TruncateAt: 2} },
			},
			check: func(t *testing.T, s Stats) {
				if s.WorkersLost == 0 && s.Stragglers == 0 {
					t.Errorf("torn-frame worker neither reaped nor struck: %+v", s)
				}
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conns := startWorkers(t, tc.machines(), tc.wrap)
			opts := fastOptions()
			if tc.opts != nil {
				tc.opts(&opts)
			}
			got, stats, err := Solve(context.Background(), p, conns, opts)
			if err != nil {
				t.Fatalf("solve: %v (stats %+v)", err, stats)
			}
			assertIdentical(t, seq, got)
			tc.check(t, stats)
		})
	}
}

// TestQuorumLost: when every worker dies the solve must fail closed with
// ErrQuorumLost — no partial or unverified answer.
func TestQuorumLost(t *testing.T) {
	p := randomProblem(rand.New(rand.NewSource(3)), 5, 6)
	conns := startWorkers(t, []Machine{
		&OfflineMachine{Inner: NewHonestMachine("w0"), FailAfter: 0},
		&OfflineMachine{Inner: NewHonestMachine("w1"), FailAfter: 0},
	}, nil)
	got, _, err := Solve(context.Background(), p, conns, fastOptions())
	if !errors.Is(err, ErrQuorumLost) {
		t.Fatalf("err = %v, want ErrQuorumLost", err)
	}
	var qe *QuorumError
	if !errors.As(err, &qe) {
		t.Fatalf("err = %v, want *QuorumError", err)
	}
	if got != nil {
		t.Fatalf("quorum loss still returned a solution")
	}
}

// TestSingleWorkerDegradation: the fleet shrinks to one survivor and the
// solve still completes, bit-identically.
func TestSingleWorkerDegradation(t *testing.T) {
	p := randomProblem(rand.New(rand.NewSource(5)), 6, 7)
	seq, err := core.Solve(p)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	conns := startWorkers(t, []Machine{
		NewHonestMachine("survivor"),
		&OfflineMachine{Inner: NewHonestMachine("w1"), FailAfter: 1},
		&OfflineMachine{Inner: NewHonestMachine("w2"), FailAfter: 1},
	}, nil)
	got, stats, err := Solve(context.Background(), p, conns, fastOptions())
	if err != nil {
		t.Fatalf("solve: %v (stats %+v)", err, stats)
	}
	assertIdentical(t, seq, got)
	if stats.WorkersLost != 2 {
		t.Fatalf("WorkersLost = %d, want 2", stats.WorkersLost)
	}
}

// TestResumeFromFrontier: a restored checkpoint frontier seeds both the
// coordinator and the workers, and the finished solve matches the reference.
func TestResumeFromFrontier(t *testing.T) {
	p := randomProblem(rand.New(rand.NewSource(9)), 6, 7)
	seq, err := core.Solve(p)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	f := &core.Frontier{Level: 2, C: seq.C}
	conns := startWorkers(t, []Machine{
		NewHonestMachine("w0"), NewHonestMachine("w1"),
	}, nil)
	opts := fastOptions()
	opts.Frontier = f
	got, _, err := Solve(context.Background(), p, conns, opts)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	assertIdentical(t, seq, got)
}

// TestCheckpointerFiresAtBarriers: every merged level j < K reaches the
// checkpointer, in order.
func TestCheckpointerFiresAtBarriers(t *testing.T) {
	p := randomProblem(rand.New(rand.NewSource(13)), 5, 6)
	conns := startWorkers(t, []Machine{NewHonestMachine("w0")}, nil)
	var levels []int
	opts := fastOptions()
	opts.Checkpointer = ckFunc(func(level int, sol *core.Solution) error {
		levels = append(levels, level)
		return nil
	})
	if _, _, err := Solve(context.Background(), p, conns, opts); err != nil {
		t.Fatalf("solve: %v", err)
	}
	if len(levels) != p.K-1 {
		t.Fatalf("checkpointed levels %v, want 1..%d", levels, p.K-1)
	}
	for i, l := range levels {
		if l != i+1 {
			t.Fatalf("checkpointed levels %v, want 1..%d", levels, p.K-1)
		}
	}
}

type ckFunc func(level int, sol *core.Solution) error

func (f ckFunc) CheckpointLevel(level int, sol *core.Solution) error { return f(level, sol) }

// TestSolveNoGoroutineLeaks: a solve — including one that loses workers —
// leaves no coordinator goroutines behind.
func TestSolveNoGoroutineLeaks(t *testing.T) {
	p := randomProblem(rand.New(rand.NewSource(17)), 5, 6)
	before := runtime.NumGoroutine()
	for trial := 0; trial < 3; trial++ {
		conns := startWorkers(t, []Machine{
			NewHonestMachine("w0"),
			&OfflineMachine{Inner: NewHonestMachine("w1"), FailAfter: 1},
		}, nil)
		if _, _, err := Solve(context.Background(), p, conns, fastOptions()); err != nil {
			t.Fatalf("solve: %v", err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before, %d after", before, runtime.NumGoroutine())
}

// TestHonestMachineProtocol pins the worker state machine's refusals: wrong
// hashes, out-of-order levels, and diverged merges all end the session.
func TestHonestMachineProtocol(t *testing.T) {
	p := randomProblem(rand.New(rand.NewSource(21)), 4, 5)
	hello := func(t *testing.T) (*HonestMachine, string) {
		t.Helper()
		m := NewHonestMachine("w")
		body, hash := helloFor(t, p)
		replies, err := m.Handle(Message{Type: msgHello, Body: body})
		if err != nil {
			t.Fatalf("hello: %v", err)
		}
		if len(replies) != 1 || replies[0].Type != msgHelloOK {
			t.Fatalf("hello replies: %+v", replies)
		}
		return m, hash
	}

	t.Run("assign-before-hello", func(t *testing.T) {
		m := NewHonestMachine("w")
		if _, err := m.Handle(Message{Type: msgAssign, Body: []byte(`{}`)}); err == nil {
			t.Fatal("assign before hello accepted")
		}
	})
	t.Run("wrong-hash", func(t *testing.T) {
		m := NewHonestMachine("w")
		body, _ := helloFor(t, p)
		bad := strings.Replace(string(body), `"hash":"`, `"hash":"ffff`, 1)
		if _, err := m.Handle(Message{Type: msgHello, Body: []byte(bad)}); err == nil {
			t.Fatal("hello with a wrong hash accepted")
		}
	})
	t.Run("wrong-level", func(t *testing.T) {
		m, _ := hello(t)
		if _, err := m.Handle(Message{Type: msgAssign, Body: []byte(`{"id":1,"level":3,"lo":0,"hi":1}`)}); err == nil {
			t.Fatal("assign for level 3 on a level-0 frontier accepted")
		}
	})
	t.Run("diverged-merge", func(t *testing.T) {
		m, _ := hello(t)
		plane := &checkpoint.Plane{
			Level: 1, Lo: 0, Hi: core.Binomial(p.K, 1),
			FrozenSum: 12345, // not this worker's frontier
			C:         make([]uint64, p.K),
		}
		img, err := checkpoint.EncodePlane(plane)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Handle(Message{Type: msgMerged, Body: img}); err == nil {
			t.Fatal("diverged merge accepted")
		}
	})
}

func helloFor(t *testing.T, p *core.Problem) ([]byte, string) {
	t.Helper()
	var pbuf bytes.Buffer
	if err := instio.Write(&pbuf, p, ""); err != nil {
		t.Fatal(err)
	}
	hash, err := checkpoint.ProblemHash(p)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(&helloBody{Hash: hash, Problem: pbuf.Bytes()})
	if err != nil {
		t.Fatal(err)
	}
	return body, hash
}
