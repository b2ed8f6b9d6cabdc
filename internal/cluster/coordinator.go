package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/bits"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/certify"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/instio"
)

// maxViolations caps the node-attributed evidence a solve accumulates, like
// a certify report: enough to diagnose, bounded under a hostile worker.
const maxViolations = 8

// remoteWorker is the coordinator's view of one worker session.
type remoteWorker struct {
	name     string // self-declared ID from HelloOK, or a positional default
	conn     net.Conn
	alive    bool
	ok       bool // completed the handshake
	busy     bool // has an outstanding assignment
	strikes  int
	lastSeen time.Time
}

// event is one item from a worker's read loop: a message or a terminal read
// error.
type event struct {
	w    *remoteWorker
	typ  byte
	body []byte
	err  error
}

// levelSlice is one Gosper rank range of the current level, with its retry
// state.
type levelSlice struct {
	lo, hi  uint64
	tries   int       // penalized attempts (verify failures, straggles)
	readyAt time.Time // earliest redispatch after a penalized requeue
}

// assignment is one outstanding slice on one worker.
type assignment struct {
	s        *levelSlice
	w        *remoteWorker
	deadline time.Time
}

// coord is the single-threaded coordinator: per-worker read loops feed one
// event channel, and all state — worker health, inflight assignments, the
// merged tables — is touched only by the Solve goroutine, so the event loop
// needs no locks.
type coord struct {
	ctx  context.Context
	p    *core.Problem
	kn   *core.Kernel
	opts Options
	hash string
	sol  *core.Solution

	frozen  uint64 // FNV-1a over C of every merged level, the plane acceptance checksum
	workers []*remoteWorker
	events  chan event
	done    chan struct{}
	wg      sync.WaitGroup

	nextAssign uint64
	stats      Stats
}

// Solve runs the distributed DP over the given worker connections and
// returns a solution bit-identical to the sequential reference, or fails
// closed. Solve takes ownership of the conns and closes them on return.
func Solve(ctx context.Context, p *core.Problem, conns []net.Conn, opts Options) (*core.Solution, Stats, error) {
	var zero Stats
	closeAll := func() {
		for _, cn := range conns {
			_ = cn.Close()
		}
	}
	if len(conns) == 0 {
		return nil, zero, ErrNoWorkers
	}
	kn, err := core.Compile(p)
	if err != nil {
		closeAll()
		return nil, zero, err
	}
	if err := ctx.Err(); err != nil {
		closeAll()
		return nil, zero, err
	}
	opts = opts.withDefaults(len(conns))
	hash := opts.Hash
	if hash == "" {
		var err error
		if hash, err = checkpoint.ProblemHash(p); err != nil {
			closeAll()
			return nil, zero, err
		}
	}

	size := 1 << uint(p.K)
	sol := &core.Solution{C: make([]uint64, size)}
	for s := 1; s < size; s++ {
		sol.C[s] = core.Inf
	}
	start := 1
	if f := opts.Frontier; f != nil {
		if err := f.Validate(p.K); err != nil {
			closeAll()
			return nil, zero, err
		}
		for s := range f.C {
			if bits.OnesCount32(uint32(s)) <= f.Level {
				sol.C[s] = f.C[s]
			}
		}
		start = f.Level + 1
	}

	c := &coord{
		ctx:    ctx,
		p:      p,
		kn:     kn,
		opts:   opts,
		hash:   hash,
		sol:    sol,
		frozen: frozenOver(sol.C, p.K, start-1),
		done:   make(chan struct{}),
	}
	defer c.shutdown()
	if err := c.handshake(conns, start); err != nil {
		return nil, c.stats, err
	}

	for level := start; level <= p.K; level++ {
		if err := c.runLevel(level); err != nil {
			return nil, c.stats, err
		}
		if level < p.K {
			// Workers only need frontiers they will compute from; the final
			// level is followed by Done instead.
			c.broadcastMerged(level)
		}
		forEachLevelSubset(p.K, level, func(s uint32) {
			c.frozen = checkpoint.FNVAdd(c.frozen, sol.C[s])
		})
		if ck := c.opts.Checkpointer; ck != nil && level < p.K {
			if err := ck.CheckpointLevel(level, sol); err != nil {
				return nil, c.stats, err
			}
		}
	}
	c.sendDone()
	sol.Cost = sol.C[size-1]
	// Match the sequential solver's operation accounting: one op per
	// (subset, action) evaluation plus one per subset for the minimum.
	sol.Ops = int64(size-1) * int64(len(p.Actions)+1)
	return sol, c.stats, nil
}

// handshake sends Hello to every connection and waits for the HelloOKs.
// Workers that fail to answer in time — or answer for the wrong instance —
// are dead before the first assignment.
func (c *coord) handshake(conns []net.Conn, start int) error {
	var pbuf bytes.Buffer
	if err := instio.Write(&pbuf, c.p, ""); err != nil {
		return err
	}
	hb := helloBody{Hash: c.hash, Problem: pbuf.Bytes()}
	if start > 1 {
		img, err := checkpoint.Encode(c.p, c.hash, "cluster", 0, start-1, c.sol)
		if err != nil {
			return err
		}
		hb.Frontier = img
	}
	now := time.Now()
	for i, conn := range conns {
		c.workers = append(c.workers, &remoteWorker{
			name: fmt.Sprintf("worker-%d", i), conn: conn, alive: true, lastSeen: now,
		})
	}
	c.events = make(chan event, 4*len(c.workers)+4)
	for _, w := range c.workers {
		if err := writeJSON(w.conn, msgHello, &hb); err != nil {
			c.markDead(w, "hello write", err)
			continue
		}
		c.wg.Add(1)
		go c.readLoop(w)
	}
	deadline := time.Now().Add(c.opts.HandshakeTimeout)
	for c.pendingOK() > 0 {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			break
		}
		timer := time.NewTimer(remaining)
		select {
		case <-c.ctx.Done():
			timer.Stop()
			return c.ctx.Err()
		case ev := <-c.events:
			timer.Stop()
			c.handshakeEvent(ev)
		case <-timer.C:
		}
	}
	for _, w := range c.workers {
		if w.alive && !w.ok {
			c.markDead(w, "handshake timeout", nil)
		}
	}
	c.stats.Workers = c.live()
	if n := c.live(); n < c.opts.Quorum {
		return &QuorumError{Level: start, Live: n, Quorum: c.opts.Quorum}
	}
	return nil
}

func (c *coord) pendingOK() int {
	n := 0
	for _, w := range c.workers {
		if w.alive && !w.ok {
			n++
		}
	}
	return n
}

func (c *coord) handshakeEvent(ev event) {
	w := ev.w
	if ev.err != nil {
		c.markDead(w, "read", ev.err)
		return
	}
	if !w.alive {
		return
	}
	w.lastSeen = time.Now()
	switch ev.typ {
	case msgHelloOK:
		var ok helloOKBody
		if err := json.Unmarshal(ev.body, &ok); err != nil {
			c.markDead(w, "hello-ok decode", err)
			return
		}
		if ok.Hash != c.hash {
			c.markDead(w, fmt.Sprintf("hello-ok for instance %.12s, want %.12s", ok.Hash, c.hash), nil)
			return
		}
		if ok.ID != "" {
			w.name = ok.ID
		}
		w.ok = true
	case msgPong:
	default:
		c.markDead(w, fmt.Sprintf("unexpected message type %d during handshake", ev.typ), nil)
	}
}

// readLoop feeds one worker's messages into the shared event channel until
// the conn errors or the coordinator shuts down.
func (c *coord) readLoop(w *remoteWorker) {
	defer c.wg.Done()
	defer func() {
		// A reader panic must surface as a worker failure, not kill the
		// process or wedge shutdown's wg.Wait.
		if r := recover(); r != nil {
			select {
			case c.events <- event{w: w, err: fmt.Errorf("reader panic: %v", r)}:
			case <-c.done:
			}
		}
	}()
	for {
		typ, body, err := readMsg(w.conn, 0)
		select {
		case c.events <- event{w: w, typ: typ, body: body, err: err}:
		case <-c.done:
			return
		}
		if err != nil {
			return
		}
	}
}

// runLevel drives one level to completion: dispatch slices, collect and
// verify planes, reassign on failure, and keep the fleet honest with
// deadlines and heartbeats.
func (c *coord) runLevel(level int) error {
	total := core.Binomial(c.p.K, level)
	nSlices := uint64(c.opts.Slices)
	if nSlices > total {
		nSlices = total
	}
	if nSlices < 1 {
		nSlices = 1
	}
	chunk := (total + nSlices - 1) / nSlices
	var queue []*levelSlice
	for lo := uint64(0); lo < total; lo += chunk {
		queue = append(queue, &levelSlice{lo: lo, hi: min(lo+chunk, total)})
	}
	remaining := len(queue)
	inflight := make(map[uint64]*assignment)
	hbAt := time.Now().Add(c.opts.HeartbeatEvery)

	for remaining > 0 {
		if err := c.ctx.Err(); err != nil {
			return err
		}
		// Reclaim slices stranded on workers that died since the last pass —
		// no penalty: the slice was not at fault.
		for id, a := range inflight {
			if !a.w.alive {
				delete(inflight, id)
				if err := c.requeueSlice(a.s, &queue, false); err != nil {
					return err
				}
			}
		}
		if n := c.live(); n < c.opts.Quorum {
			return &QuorumError{Level: level, Live: n, Quorum: c.opts.Quorum}
		}
		now := time.Now()
		// Dispatch every ready slice to the healthiest idle workers.
		for i := 0; i < len(queue); {
			s := queue[i]
			if s.readyAt.After(now) {
				i++
				continue
			}
			w := c.pickWorker()
			if w == nil {
				break
			}
			queue = append(queue[:i], queue[i+1:]...)
			id := c.nextAssign
			c.nextAssign++
			if err := writeJSON(w.conn, msgAssign, &assignBody{ID: id, Level: level, Lo: s.lo, Hi: s.hi}); err != nil {
				c.markDead(w, "assign write", err)
				queue = append(queue, s)
				continue
			}
			w.busy = true
			inflight[id] = &assignment{s: s, w: w, deadline: now.Add(c.opts.PlaneDeadline)}
		}
		// Sleep until the next deadline: a straggler, a backed-off slice, or
		// the heartbeat tick.
		wake := hbAt
		for _, a := range inflight {
			if a.deadline.Before(wake) {
				wake = a.deadline
			}
		}
		for _, s := range queue {
			if s.readyAt.After(now) && s.readyAt.Before(wake) {
				wake = s.readyAt
			}
		}
		timer := time.NewTimer(time.Until(wake))
		select {
		case <-c.ctx.Done():
			timer.Stop()
			return c.ctx.Err()
		case ev := <-c.events:
			timer.Stop()
			if err := c.levelEvent(ev, level, inflight, &queue, &remaining); err != nil {
				return err
			}
		case <-timer.C:
			now = time.Now()
			for id, a := range inflight {
				if now.After(a.deadline) {
					delete(inflight, id)
					a.w.busy = false
					c.stats.Stragglers++
					c.strike(a.w, "plane deadline exceeded")
					if err := c.requeueSlice(a.s, &queue, true); err != nil {
						return err
					}
				}
			}
			if !now.Before(hbAt) {
				c.heartbeat(now)
				hbAt = now.Add(c.opts.HeartbeatEvery)
			}
		}
	}
	return nil
}

// levelEvent handles one worker message during a level: pongs refresh
// liveness, planes are verified and merged or refused and reassigned, and
// anything else is a protocol violation.
func (c *coord) levelEvent(ev event, level int, inflight map[uint64]*assignment, queue *[]*levelSlice, remaining *int) error {
	w := ev.w
	if ev.err != nil {
		c.markDead(w, "read", ev.err)
		return nil
	}
	if !w.alive {
		return nil
	}
	w.lastSeen = time.Now()
	switch ev.typ {
	case msgPong, msgHelloOK:
		return nil
	case msgPlane:
		if len(ev.body) < 8 {
			c.markDead(w, "plane message too short", nil)
			return nil
		}
		id := binary.LittleEndian.Uint64(ev.body)
		a, known := inflight[id]
		if !known || a.w != w {
			// A late plane for a reassigned slice, a duplicated frame, or an
			// unsolicited plane: the merged tables already moved on.
			c.stats.StalePlanes++
			return nil
		}
		delete(inflight, id)
		w.busy = false
		rep := &certify.Report{}
		plane, err := checkpoint.DecodePlane(ev.body[8:])
		if err != nil {
			rep.Violations = append(rep.Violations, certify.Violation{
				Kind: certify.BadStructure, Action: -1, Node: w.name,
				Detail: fmt.Sprintf("plane image rejected: %v", err),
			})
		} else {
			rep = c.verifyPlane(w, level, a.s.lo, a.s.hi, plane)
		}
		if !rep.OK() {
			c.stats.PlanesRejected++
			c.recordViolations(rep)
			c.strike(w, "plane rejected")
			return c.requeueSlice(a.s, queue, true)
		}
		v := uint32(core.NthSubset(a.s.lo, level))
		for i := range plane.C {
			c.sol.C[v] = plane.C[i]
			lsb := v & -v
			r := v + lsb
			v = (r^v)>>2/lsb | r
		}
		c.stats.Planes++
		*remaining--
		return nil
	default:
		c.markDead(w, fmt.Sprintf("unexpected message type %d", ev.typ), nil)
		return nil
	}
}

// verifyPlane is the admission check a plane must pass before a single cell
// reaches the merged tables: geometry, the frozen-frontier and weight
// checksums, per-cell monotonicity against the already final lower levels,
// and a seeded spot-audit that recomputes sampled cells with core.Kernel.
// Every violation is attributed to the sending worker.
func (c *coord) verifyPlane(w *remoteWorker, level int, lo, hi uint64, plane *checkpoint.Plane) *certify.Report {
	rep := &certify.Report{}
	add := func(viol certify.Violation) {
		viol.Node = w.name
		if len(rep.Violations) < maxViolations {
			rep.Violations = append(rep.Violations, viol)
		}
	}
	if plane.Level != level || plane.Lo != lo || plane.Hi != hi {
		add(certify.Violation{Kind: certify.BadShape, Action: -1,
			Detail: fmt.Sprintf("plane level=%d ranks [%d,%d), want level=%d [%d,%d)",
				plane.Level, plane.Lo, plane.Hi, level, lo, hi)})
		return rep
	}
	if plane.FrozenSum != c.frozen {
		add(certify.Violation{Kind: certify.BadCell, Action: -1, Got: plane.FrozenSum, Want: c.frozen,
			Detail: "frozen frontier checksum mismatch: plane computed from a diverged frontier"})
	}
	wsum := checkpoint.FNVInit()
	v := uint32(core.NthSubset(lo, level))
	for i := lo; i < hi; i++ {
		wsum = checkpoint.FNVAdd(wsum, c.kn.Weight(core.Set(v)))
		lsb := v & -v
		r := v + lsb
		v = (r^v)>>2/lsb | r
	}
	if wsum != plane.WeightSum {
		add(certify.Violation{Kind: certify.BadConservation, Action: -1, Got: plane.WeightSum, Want: wsum,
			Detail: "weight checksum mismatch: worker disagrees on p(S) over the slice"})
	}
	rng := rand.New(rand.NewSource(c.opts.Seed ^ int64(level)<<32 ^ int64(lo)))
	v = uint32(core.NthSubset(lo, level))
	for i := range plane.C {
		if len(rep.Violations) >= maxViolations {
			break
		}
		rep.Checked++
		cv := plane.C[i]
		for x := v; x != 0; x &= x - 1 {
			e := x & -x
			if c.sol.C[v&^e] > cv {
				add(certify.Violation{Kind: certify.BadMonotone, Set: core.Set(v), Action: -1,
					Got: cv, Want: c.sol.C[v&^e],
					Detail: fmt.Sprintf("C(S−{%d}) exceeds claimed C(S)", bits.TrailingZeros32(e))})
				break
			}
		}
		if c.opts.AuditFraction >= 1 || rng.Float64() < c.opts.AuditFraction {
			c.stats.AuditedCells++
			if best, _ := c.kn.Cell(c.sol.C, core.Set(v)); best != cv {
				add(certify.Violation{Kind: certify.BadCell, Set: core.Set(v), Action: -1, Got: cv, Want: best,
					Detail: "audited cell disagrees with direct recomputation from the merged frontier"})
			}
		}
		lsb := v & -v
		r := v + lsb
		v = (r^v)>>2/lsb | r
	}
	return rep
}

// broadcastMerged sends the verified level to every live worker — the single
// source of truth they extend their frontiers from.
func (c *coord) broadcastMerged(level int) {
	total := core.Binomial(c.p.K, level)
	plane := &checkpoint.Plane{
		Level: level, Lo: 0, Hi: total,
		FrozenSum: c.frozen,
		WeightSum: checkpoint.FNVInit(),
		C:         make([]uint64, 0, total),
	}
	forEachLevelSubset(c.p.K, level, func(s uint32) {
		plane.C = append(plane.C, c.sol.C[s])
		plane.WeightSum = checkpoint.FNVAdd(plane.WeightSum, c.kn.Weight(core.Set(s)))
	})
	img, err := checkpoint.EncodePlane(plane)
	if err != nil {
		// Geometry is ours and in range; encoding cannot fail.
		panic(err)
	}
	for _, w := range c.workers {
		if !w.alive {
			continue
		}
		if err := writeMsg(w.conn, msgMerged, img); err != nil {
			c.markDead(w, "merged write", err)
		}
	}
}

// heartbeat pings every live worker and reaps those silent for more than
// HeartbeatMiss intervals — the only way to catch a partition that drops
// packets without erroring the conn.
func (c *coord) heartbeat(now time.Time) {
	stale := time.Duration(c.opts.HeartbeatMiss+1) * c.opts.HeartbeatEvery
	for _, w := range c.workers {
		if !w.alive {
			continue
		}
		if now.Sub(w.lastSeen) > stale {
			c.markDead(w, "heartbeat silence", nil)
			continue
		}
		if err := writeMsg(w.conn, msgPing, nil); err != nil {
			c.markDead(w, "ping write", err)
		}
	}
}

// requeueSlice puts a slice back on the dispatch queue. A penalized requeue
// (verify failure, straggle) counts against the slice's bounded retries and
// backs off with jitter; a blameless one (worker died) redispatches
// immediately.
func (c *coord) requeueSlice(s *levelSlice, queue *[]*levelSlice, penalize bool) error {
	c.stats.Reassigned++
	if penalize {
		s.tries++
		if s.tries > c.opts.SliceRetries {
			return fmt.Errorf("cluster: slice [%d,%d) exhausted %d retries", s.lo, s.hi, c.opts.SliceRetries)
		}
		s.readyAt = time.Now().Add(retryBackoff(s.tries))
	}
	*queue = append(*queue, s)
	return nil
}

// retryBackoff is the bounded jittered backoff for penalized reassignments:
// 5ms·2^min(tries,6) plus up to 100% jitter, capped at 2s.
func retryBackoff(tries int) time.Duration {
	base := 5 * time.Millisecond << uint(min(tries, 6))
	return min(base+time.Duration(rand.Int63n(int64(base))), 2*time.Second)
}

// pickWorker returns the healthiest idle worker: alive, not busy, fewest
// strikes — suspects compute only when no clean worker is free.
func (c *coord) pickWorker() *remoteWorker {
	var best *remoteWorker
	for _, w := range c.workers {
		if !w.alive || w.busy {
			continue
		}
		if best == nil || w.strikes < best.strikes {
			best = w
		}
	}
	return best
}

func (c *coord) live() int {
	n := 0
	for _, w := range c.workers {
		if w.alive {
			n++
		}
	}
	return n
}

// markDead removes a worker: its conn is closed (which ends its read loop)
// and it is never assigned again.
func (c *coord) markDead(w *remoteWorker, reason string, err error) {
	if !w.alive {
		return
	}
	w.alive = false
	_ = w.conn.Close()
	c.stats.WorkersLost++
	c.opts.Logger.Warn("cluster worker lost", "worker", w.name, "reason", reason, "err", err)
}

// strike penalizes a worker for a rejected plane or a missed deadline;
// MaxStrikes removes it.
func (c *coord) strike(w *remoteWorker, reason string) {
	if !w.alive {
		return
	}
	w.strikes++
	c.opts.Logger.Warn("cluster worker suspect", "worker", w.name, "strikes", w.strikes, "reason", reason)
	if w.strikes >= c.opts.MaxStrikes {
		c.markDead(w, "struck out", nil)
	}
}

func (c *coord) recordViolations(rep *certify.Report) {
	for _, v := range rep.Violations {
		if len(c.stats.Violations) >= maxViolations {
			return
		}
		c.stats.Violations = append(c.stats.Violations, v)
	}
}

// sendDone ends every surviving session cleanly, best-effort.
func (c *coord) sendDone() {
	for _, w := range c.workers {
		if w.alive {
			_ = writeMsg(w.conn, msgDone, nil)
		}
	}
}

// shutdown tears the coordinator down without leaks: the done channel
// releases any read loop blocked on the event channel, closing the conns
// releases any blocked on a read, and the wait group confirms both.
func (c *coord) shutdown() {
	close(c.done)
	for _, w := range c.workers {
		_ = w.conn.Close()
	}
	c.wg.Wait()
}
