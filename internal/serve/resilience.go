package serve

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/approx"
	"repro/internal/certify"
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

// solveAttempt runs one rung once, with panic isolation and the chaos fault
// hooks. Nothing is persisted: a solve that dies is re-solved from scratch
// by the next request, which costs less than resuming it from disk would
// (EXPERIMENTS.md, "Checkpoint plane verdict").
//
// The answer is certified in the server's mode before it is returned (and
// therefore before runSolve can cache it), by certifiedEntry. A failed
// certification is an engine fault like any other.
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
		// certificates) and no progress hook.
		return s.solveApproxAttempt(ctx, hash, canon, ap)
	}
	sol, err := core.SolveParallelPooledCtx(ctx, canon, s.ranges(), s.stripe, nil, s.levelPause(ctx))
	if err != nil {
		return nil, err
	}
	return s.certifiedEntry(canon, hash, rung, ap, sol)
}

// certifiedEntry turns one exact solution into a certified cache entry: tree
// reconstruction from the cost plane, then the engine-independent certifier
// every exact answer passes before it can be cached, solo ("exact") and
// batch ("batch") alike. A refused answer is an error, and the pass or fail
// is counted. It releases sol's pooled DP tables once the answer is
// certified.
func (s *Server) certifiedEntry(canon *core.Problem, hash, rung string, ap approx.Spec, sol *core.Solution) (*cacheEntry, error) {
	defer sol.Release()
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
	ent := &cacheEntry{rung: rung, cost: cost, adequate: cost < core.Inf,
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

// ranges is the most stripe-pool workers an exact solve runs its blocks on:
// the pool's width shared among the solves holding a solver slot, this one
// included. A lone solve spreads over every worker; under the defaults,
// where the pool and MaxConcurrent are both GOMAXPROCS, a full house runs
// one range each, since the other solves already fill the cores. The core
// sweep further runs an instance too small to cut into blocks as one.
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

// levelPause returns the chaos LevelDelay hook: a progress hook that pauses
// at each of an exact solve's K−1 progress reports, or nil when no delay is
// configured. The pause ends early, aborting the solve, when the solve's
// context does.
func (s *Server) levelPause(ctx context.Context) core.Progress {
	delay := s.cfg.LevelDelay
	if delay <= 0 {
		return nil
	}
	return func(uint64, uint64) error {
		t := time.NewTimer(delay)
		defer t.Stop()
		select {
		case <-t.C:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}
