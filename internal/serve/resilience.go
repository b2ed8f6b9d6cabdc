package serve

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/approx"
	"repro/internal/certify"
	"repro/internal/checkpoint"
	"repro/internal/core"
)

// solveResilient runs one admitted solve on its rung — the exact path, or
// approx for an instance routed past the exact budget — and, when an exact
// attempt fails and the request enabled approx, tries the approx plane once:
// with the exact path faulting, a certified-gap answer beats a 5xx, and the
// response labels it via solved_by and the gap fields. Context errors
// (deadline, client gone, shutdown) abort immediately — they are not engine
// failures and approx cannot help. Everything else (engine error, engine
// panic, injected fault, refused certification) is counted. No state
// outlives the request: a path that failed here is tried afresh by the next
// request.
func (s *Server) solveResilient(ctx context.Context, hash string, canon *core.Problem, rung string, ap approx.Spec) (*cacheEntry, error) {
	chain := []string{rung}
	if rung == "exact" && ap.Enabled && s.admitApprox(canon) == nil {
		chain = append(chain, "approx")
	}
	var firstErr error
	for ci, r := range chain {
		if ci > 0 {
			s.metrics.Fallbacks.Add(1)
			s.log.Warn("falling back", "from", chain[ci-1], "to", r, "hash", hash[:12])
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		s.metrics.Solves.Add(1)
		start := time.Now()
		ent, err := s.solveAttempt(ctx, hash, canon, r, ap)
		s.metrics.observe(r, time.Since(start))
		if err == nil {
			return ent, nil
		}
		if isContextErr(err) {
			return nil, err
		}
		s.metrics.EngineFailures.Add(1)
		if firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", r, err)
		}
		s.log.Warn("solve attempt failed", "rung", r, "err", err)
	}
	return nil, fmt.Errorf("serve: solve failed: %w", firstErr)
}

func isContextErr(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// solveAttempt runs one rung once, with panic isolation, the chaos fault
// hook, and — when a checkpoint directory is configured — a
// best-effort durable checkpointer plus resume from any compatible
// checkpoint already on disk for this instance. A finished solve discards
// its checkpoint file: the durable frontier exists only while the answer
// does not.
//
// The answer is certified in the server's mode before it is returned (and
// therefore before runSolve can cache it): the tree extracted from the cost
// plane plus the reported C(U) must pass the engine-independent certifier. A
// failed certification is an engine fault like any other.
func (s *Server) solveAttempt(ctx context.Context, hash string, canon *core.Problem, rung string, ap approx.Spec) (ent *cacheEntry, err error) {
	defer func() {
		if r := recover(); r != nil {
			ent, err = nil, fmt.Errorf("serve: %s solve panicked: %v", rung, r)
		}
	}()
	if hook := s.cfg.EngineFault; hook != nil {
		if err := hook(rung); err != nil {
			return nil, err
		}
	}
	if rung == "approx" {
		// The anytime path has its own certification discipline (gap
		// certificates) and no checkpoint/frontier machinery — its solves
		// are repriceable in milliseconds, not worth durable state.
		return s.solveApproxAttempt(ctx, hash, canon, ap)
	}
	frontier := s.loadResume(hash)
	ck, w := s.checkpointerFor(ctx, hash, canon)
	sol, err := core.SolveParallelPooledCtx(ctx, canon, s.ranges(), s.stripe, frontier, ck)
	if err != nil {
		return nil, err
	}
	defer sol.Release() // pooled DP tables, recycled once the answer is certified
	cost := sol.Cost
	if hook := s.cfg.ResultFault; hook != nil && hook(rung) {
		// Chaos: a silent in-memory corruption of the finished answer — the
		// exact failure the certifier exists to stop at the door.
		if cost >= core.Inf {
			cost = 42
		} else {
			cost++
		}
	}
	if w != nil {
		if err := w.Discard(); err != nil {
			s.log.Warn("discarding finished checkpoint", "err", err)
		}
	}
	ent = &cacheEntry{rung: rung, cost: cost, adequate: cost < core.Inf,
		canon: canon, hash: hash, key: cacheKey(hash, ap)}
	if ent.adequate {
		tree, err := core.TreeFromCosts(canon, sol.C)
		if err != nil {
			return nil, err
		}
		ent.tree = tree
	}
	rep := certify.Check(canon, cost, ent.tree, sol.C, nil, s.certifyMode, certifySeed(hash))
	if !rep.OK() {
		s.metrics.CertifyFail.Add(1)
		return nil, fmt.Errorf("serve: %s answer refused: %w", rung, rep.Err())
	}
	s.metrics.CertifyPass.Add(1)
	ent.bytes = entryBytes(ent)
	return ent, nil
}

// ranges is the most Gosper ranges an exact solve cuts each level into: the
// stripe pool's width shared among the solves holding a solver slot, this
// one included (startup recovery holds none). A lone solve spreads over
// every worker; under the defaults, where the pool and MaxConcurrent are
// both GOMAXPROCS, a full house runs one range each, since the other solves
// already fill the cores. core.sweep further keeps small levels inline.
func (s *Server) ranges() int {
	return max(1, s.stripe.Workers()/max(1, len(s.sem)))
}

// certifySeed derives the audit-mode sampling seed from the instance hash, so
// re-certifying the same instance audits the same cells (reproducible) while
// different instances audit different ones.
func certifySeed(hash string) int64 {
	var s uint64 = 14695981039346656037
	for i := 0; i < len(hash); i++ {
		s = (s ^ uint64(hash[i])) * 1099511628211
	}
	return int64(s)
}

// loadResume returns a frontier for this instance if a valid durable
// checkpoint exists: the hashes must match (guaranteed by the file name but
// re-verified by Load). A frontier is C alone, so whichever engine wrote it
// — including a simulated machine from an older binary — seeds the exact
// path's resume.
func (s *Server) loadResume(hash string) *core.Frontier {
	if s.cfg.CheckpointDir == "" {
		return nil
	}
	snap, err := checkpoint.Load(s.cfg.CheckpointFS, s.checkpointPath(hash))
	if err != nil {
		return nil // missing or corrupt: solve from scratch
	}
	if snap.Hash != hash {
		return nil
	}
	return snap.Frontier
}

// checkpointerFor builds the per-solve checkpointer: a durable writer when a
// checkpoint directory is configured, wrapped so persistence failures are
// counted and logged but never abort the solve (an ENOSPC disk must not take
// down answers), plus the chaos LevelDelay pause. Returns (nil, nil) when
// there is nothing to do at level barriers.
func (s *Server) checkpointerFor(ctx context.Context, hash string, canon *core.Problem) (core.Checkpointer, *checkpoint.Writer) {
	var w *checkpoint.Writer
	if s.cfg.CheckpointDir != "" {
		var err error
		w, err = checkpoint.NewWriter(s.cfg.CheckpointFS, s.cfg.CheckpointDir, canon, hash, "exact", 0)
		if err != nil {
			s.metrics.CheckpointErrors.Add(1)
			s.log.Warn("checkpointing disabled for solve", "err", err)
			w = nil
		}
	}
	if w == nil && s.cfg.LevelDelay <= 0 {
		return nil, nil
	}
	return &bestEffortCk{s: s, ctx: ctx, w: w, delay: s.cfg.LevelDelay}, w
}

func (s *Server) checkpointPath(hash string) string {
	return filepath.Join(s.cfg.CheckpointDir, hash+checkpoint.Ext)
}

// bestEffortCk adapts a durable checkpoint.Writer to the solver contract:
// core aborts the sweep when a checkpointer errors (correct for chaos kills),
// but in the serving path a failed persistence write must cost durability,
// not the answer — so errors are swallowed after counting. The optional
// delay is the chaos harness's artificial per-level slowness.
type bestEffortCk struct {
	s     *Server
	ctx   context.Context
	w     *checkpoint.Writer
	delay time.Duration
}

func (b *bestEffortCk) CheckpointLevel(level int, sol *core.Solution) error {
	if b.delay > 0 {
		t := time.NewTimer(b.delay)
		select {
		case <-t.C:
		case <-b.ctx.Done():
			t.Stop()
			return b.ctx.Err()
		}
	}
	if b.w == nil {
		return nil
	}
	if err := b.w.CheckpointLevel(level, sol); err != nil {
		b.s.metrics.CheckpointErrors.Add(1)
		b.s.log.Warn("checkpoint write failed", "level", level, "err", err)
		b.w = nil // the disk is sick; stop paying for it this solve
		return nil
	}
	b.s.metrics.CheckpointLevels.Add(1)
	return nil
}

// RecoverCheckpoints scans the checkpoint directory for solves interrupted
// by a crash, finishes each one from its durable frontier on the exact path,
// whichever engine wrote it (the frontier is C alone), installs the answers
// in the cache, and deletes consumed files. Corrupt files and torn
// temp residue are deleted outright. Call it after New and before serving
// traffic; it returns (resumed, discarded).
func (s *Server) RecoverCheckpoints(ctx context.Context) (resumed, discarded int, err error) {
	if s.cfg.CheckpointDir == "" {
		return 0, 0, nil
	}
	if t := s.cfg.RecoverTimeout; t > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, t)
		defer cancel()
	}
	snaps, discard, err := checkpoint.ScanCtx(ctx, s.cfg.CheckpointFS, s.cfg.CheckpointDir)
	if err != nil {
		if isContextErr(err) {
			// The recovery budget ran out mid-scan: a slow disk or an enormous
			// directory must not delay serving. Keep what was validated and
			// leave the rest on disk for the next start.
			s.log.Warn("checkpoint scan stopped early", "scanned", len(snaps), "err", err)
		} else {
			//ttlint:ignore durability startup maintenance with no answer in flight: an unreadable directory must abort recovery loudly
			return 0, 0, err
		}
	}
	fsys := s.cfg.CheckpointFS
	if fsys == nil {
		fsys = checkpoint.OS{}
	}
	for _, path := range discard {
		s.log.Warn("discarding unusable checkpoint", "path", path)
		_ = fsys.Remove(path)
		s.metrics.CheckpointsDiscarded.Add(1)
		discarded++
	}
	for _, snap := range snaps {
		if cerr := ctx.Err(); cerr != nil {
			s.log.Warn("checkpoint recovery stopped early",
				"resumed", resumed, "pending", len(snaps)-resumed, "err", cerr)
			break
		}
		ent, err := s.solveResilient(ctx, snap.Hash, snap.Problem, "exact", approx.Spec{Raw: "off"})
		if err != nil {
			// Leave the file: the frontier is still good and the next start
			// (or the next request for this instance) can try again.
			s.log.Warn("checkpoint resume failed", "hash", snap.Hash[:12], "err", err)
			continue
		}
		s.mu.Lock()
		s.cache.add(ent)
		s.mu.Unlock()
		s.metrics.CheckpointsResumed.Add(1)
		resumed++
		s.log.Info("resumed interrupted solve",
			"hash", snap.Hash[:12], "from_level", snap.Level, "engine", snap.Engine)
	}
	return resumed, discarded, nil
}
