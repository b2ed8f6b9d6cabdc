package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/bits"
	"net"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/instio"
)

// Message is one protocol message as seen by a Machine: the wire type byte
// and the raw body.
type Message struct {
	Type byte
	Body []byte
}

// Machine is the worker-side protocol state machine, separated from its
// transport in the style of the mpc inversion-network players: a machine has
// an identity and a Handle step that turns one received message into zero or
// more replies. RunWorker pumps a Machine over a net.Conn, so the honest
// implementation and its fault-injecting wrappers (faults.go) run unchanged
// under net.Pipe unit tests and in real ttworker processes.
type Machine interface {
	ID() string
	Handle(msg Message) ([]Message, error)
}

// errDone is returned by a Machine to end the session cleanly.
var errDone = errors.New("cluster: session done")

// HonestMachine is the correct worker: it mirrors the coordinator's frontier
// — updated only from verified Merged broadcasts, never from its own slices,
// so reassignment cannot make replicas diverge — and computes assigned level
// slices with core.Cell, the recurrence every single-process engine runs,
// which is what makes a distributed answer bit-identical to the
// single-process reference.
type HonestMachine struct {
	id   string
	p    *core.Problem
	hash string
	size int

	c      []uint64 // final for popcount <= level, Inf above
	level  int      // last merged level
	frozen uint64   // FNV-1a over C of all subsets with popcount <= level
}

// NewHonestMachine returns an honest worker machine announcing the given ID.
func NewHonestMachine(id string) *HonestMachine { return &HonestMachine{id: id, level: -1} }

// ID implements Machine.
func (m *HonestMachine) ID() string { return m.id }

// Handle implements Machine.
func (m *HonestMachine) Handle(msg Message) ([]Message, error) {
	if m.p == nil && msg.Type != msgHello && msg.Type != msgPing && msg.Type != msgDone {
		return nil, fmt.Errorf("cluster: worker %s: message %d before hello", m.id, msg.Type)
	}
	switch msg.Type {
	case msgHello:
		return m.hello(msg.Body)
	case msgAssign:
		return m.assign(msg.Body)
	case msgMerged:
		return nil, m.merged(msg.Body)
	case msgPing:
		return []Message{{Type: msgPong, Body: msg.Body}}, nil
	case msgDone:
		return nil, errDone
	default:
		return nil, fmt.Errorf("cluster: worker %s: unexpected message type %d", m.id, msg.Type)
	}
}

// hello installs the problem, trusting nothing: the instance bytes are
// re-parsed and re-hashed, and a resume frontier is re-validated through the
// checkpoint decoder before a single cell is absorbed.
func (m *HonestMachine) hello(body []byte) ([]Message, error) {
	var h helloBody
	if err := json.Unmarshal(body, &h); err != nil {
		return nil, fmt.Errorf("cluster: worker %s: hello: %w", m.id, err)
	}
	p, err := instio.Read(bytes.NewReader(h.Problem))
	if err != nil {
		return nil, fmt.Errorf("cluster: worker %s: hello problem: %w", m.id, err)
	}
	hash, err := checkpoint.ProblemHash(p)
	if err != nil {
		return nil, err
	}
	if h.Hash != "" && h.Hash != hash {
		return nil, fmt.Errorf("cluster: worker %s: hello hash %.12s does not match instance %.12s", m.id, h.Hash, hash)
	}
	m.p, m.hash = p, hash
	m.size = 1 << uint(p.K)
	m.c = make([]uint64, m.size)
	for s := 1; s < m.size; s++ {
		m.c[s] = core.Inf
	}
	m.level = 0
	if len(h.Frontier) > 0 {
		snap, err := checkpoint.Decode(h.Frontier)
		if err != nil {
			return nil, fmt.Errorf("cluster: worker %s: hello frontier: %w", m.id, err)
		}
		if snap.Hash != hash {
			return nil, fmt.Errorf("cluster: worker %s: hello frontier is for instance %.12s, want %.12s", m.id, snap.Hash, hash)
		}
		for s := range snap.Frontier.C {
			if bits.OnesCount32(uint32(s)) <= snap.Level {
				m.c[s] = snap.Frontier.C[s]
			}
		}
		m.level = snap.Level
	}
	m.frozen = frozenOver(m.c, m.p.K, m.level)
	return []Message{okMessage(m.id, hash)}, nil
}

// assign computes one level slice and returns it as a Plane message.
func (m *HonestMachine) assign(body []byte) ([]Message, error) {
	var a assignBody
	if err := json.Unmarshal(body, &a); err != nil {
		return nil, fmt.Errorf("cluster: worker %s: assign: %w", m.id, err)
	}
	if a.Level != m.level+1 {
		return nil, fmt.Errorf("cluster: worker %s: assigned level %d with merged frontier at %d", m.id, a.Level, m.level)
	}
	total := core.Binomial(m.p.K, a.Level)
	if a.Lo > a.Hi || a.Hi > total {
		return nil, fmt.Errorf("cluster: worker %s: assigned ranks [%d,%d) of a %d-rank level", m.id, a.Lo, a.Hi, total)
	}
	n := a.Hi - a.Lo
	plane := &checkpoint.Plane{
		Level: a.Level, Lo: a.Lo, Hi: a.Hi,
		FrozenSum: m.frozen,
		WeightSum: checkpoint.FNVInit(),
		C:         make([]uint64, n),
	}
	v := uint32(core.NthSubset(a.Lo, a.Level))
	for i := uint64(0); i < n; i++ {
		plane.C[i], _ = core.Cell(m.p, m.c, core.Set(v))
		plane.WeightSum = checkpoint.FNVAdd(plane.WeightSum, m.p.Weight(core.Set(v)))
		c := v & -v
		r := v + c
		v = (r^v)>>2/c | r
	}
	img, err := checkpoint.EncodePlane(plane)
	if err != nil {
		return nil, err
	}
	pb := make([]byte, 8, 8+len(img))
	binary.LittleEndian.PutUint64(pb, a.ID)
	return []Message{{Type: msgPlane, Body: append(pb, img...)}}, nil
}

// merged absorbs one full verified level broadcast by the coordinator — the
// single source of truth for the frontier. The frozen checksum is checked
// first: if the coordinator's merge does not extend the frontier this worker
// computed from, the replicas have diverged and the only safe move is to end
// the session.
func (m *HonestMachine) merged(body []byte) error {
	plane, err := checkpoint.DecodePlane(body)
	if err != nil {
		return fmt.Errorf("cluster: worker %s: merged: %w", m.id, err)
	}
	total := core.Binomial(m.p.K, m.level+1)
	if plane.Level != m.level+1 || plane.Lo != 0 || plane.Hi != total {
		return fmt.Errorf("cluster: worker %s: merged plane level=%d ranks [%d,%d), want full level %d of %d",
			m.id, plane.Level, plane.Lo, plane.Hi, m.level+1, total)
	}
	if plane.FrozenSum != m.frozen {
		return fmt.Errorf("cluster: worker %s: merged frontier checksum %x does not extend local %x — replicas diverged",
			m.id, plane.FrozenSum, m.frozen)
	}
	i := 0
	forEachLevelSubset(m.p.K, plane.Level, func(s uint32) {
		m.c[s] = plane.C[i]
		m.frozen = checkpoint.FNVAdd(m.frozen, plane.C[i])
		i++
	})
	m.level = plane.Level
	return nil
}

func okMessage(id, hash string) Message {
	b, _ := json.Marshal(&helloOKBody{ID: id, Hash: hash}) // two strings; cannot fail
	return Message{Type: msgHelloOK, Body: b}
}

// forEachLevelSubset visits every subset of popcount l of a k-universe in
// Gosper order — rank order, the packing order of planes.
func forEachLevelSubset(k, l int, visit func(s uint32)) {
	if l == 0 {
		visit(0)
		return
	}
	limit := uint32(1) << uint(k)
	v := uint32(1)<<uint(l) - 1
	for v < limit {
		visit(v)
		c := v & -v
		r := v + c
		v = (r^v)>>2/c | r
	}
}

// frozenOver computes the running FNV-1a checksum of a frontier: C over all
// subsets of popcount <= level in (level, Gosper) order.
func frozenOver(c []uint64, k, level int) uint64 {
	h := checkpoint.FNVInit()
	for l := 0; l <= level; l++ {
		forEachLevelSubset(k, l, func(s uint32) {
			h = checkpoint.FNVAdd(h, c[s])
		})
	}
	return h
}

// idleTimeout bounds how long a worker session sits with no traffic at all.
// A live coordinator pings at heartbeat cadence, so only an abandoned
// session (coordinator gone without closing the conn) trips it.
const idleTimeout = 5 * time.Minute

// RunWorker pumps one session: read a message, hand it to the machine, send
// the replies. It returns nil on a clean end (peer closed or Done received)
// and the first transport or protocol error otherwise. The conn is closed on
// return.
func RunWorker(conn net.Conn, m Machine) error {
	defer conn.Close()
	for {
		typ, body, err := readMsg(conn, idleTimeout)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		replies, err := m.Handle(Message{Type: typ, Body: body})
		for _, r := range replies {
			if werr := writeMsg(conn, r.Type, r.Body); werr != nil {
				return werr
			}
		}
		if err != nil {
			if errors.Is(err, errDone) {
				return nil
			}
			return err
		}
	}
}

// Serve accepts sessions until the listener closes, running each on its own
// machine so concurrent coordinators (or a coordinator retrying a solve)
// never share worker state.
func Serve(ln net.Listener, newMachine func() Machine, log *slog.Logger) error {
	if log == nil {
		log = slog.Default()
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go func() {
			defer func() {
				if r := recover(); r != nil {
					log.Error("worker session panic", "panic", r)
					_ = conn.Close()
				}
			}()
			m := newMachine()
			if err := RunWorker(conn, m); err != nil {
				log.Warn("worker session ended", "worker", m.ID(), "err", err)
			}
		}()
	}
}

// Dial connects to the configured worker addresses, best-effort: unreachable
// workers are logged and skipped, and only a fully unreachable fleet is an
// error (ErrNoWorkers) — the serving layer treats that as an engine fault
// and falls back in-process.
func Dial(ctx context.Context, addrs []string, timeout time.Duration, log *slog.Logger) ([]net.Conn, error) {
	if log == nil {
		log = slog.Default()
	}
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	d := net.Dialer{Timeout: timeout}
	var conns []net.Conn
	var lastErr error
	for _, addr := range addrs {
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			lastErr = err
			log.Warn("cluster worker unreachable", "addr", addr, "err", err)
			continue
		}
		conns = append(conns, conn)
	}
	if len(conns) == 0 {
		if lastErr != nil {
			return nil, fmt.Errorf("%w: %v", ErrNoWorkers, lastErr)
		}
		return nil, ErrNoWorkers
	}
	return conns, nil
}
