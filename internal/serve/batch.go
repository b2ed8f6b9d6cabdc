package serve

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/instio"
)

// POST /v1/solve/batch: solve several instances in one request — typically
// related ones, such as yesterday's diagnosis instance under today's
// prevalences or the same breakdown structure under new repair quotes, but
// the members need not share anything.
//
// The handler admits every instance individually under the same K/action
// budget as /v1/solve, serves cache hits without solving, and passes every
// miss, in request order, to one core.SolveBatchCtx call, which splits them
// across the stripe pool and solves each with the solo exact sweep. Every
// instance's answer is certified independently before it enters the shared
// LRU (the same certify-before-cache contract as /v1/solve); an instance
// whose batch solve or certification fails falls back to the per-instance
// resilient path rather than failing the batch. Batch solves bypass the
// singleflight map but populate the same cache, so follow-up /v1/solve
// requests for any member hit.
//
// Admission accounting: one batch request occupies one solver slot (and one
// MaxPending unit) for its whole duration — the batch solve already
// parallelizes internally over the stripe pool, on as many ranges as a solo
// solve would get, so letting each member grab its own slot would
// double-count the same CPUs.

// BatchItem is one instance's slice of the /v1/solve/batch reply.
type BatchItem struct {
	InstanceHash string  `json:"instance_hash"`
	Cached       bool    `json:"cached"`              // served from the LRU without solving
	SolvedBy     string  `json:"solved_by,omitempty"` // "batch", or "exact" when the instance was solved alone
	Adequate     bool    `json:"adequate"`
	Cost         *uint64 `json:"cost,omitempty"`
	FirstAction  string  `json:"first_action,omitempty"`
	Tree         string  `json:"tree,omitempty"`
	Error        string  `json:"error,omitempty"` // this instance failed; the others are unaffected
}

// BatchResponse is the /v1/solve/batch reply.
type BatchResponse struct {
	Instances   int         `json:"instances"`
	CacheHits   int         `json:"cache_hits"`   //
	Fallbacks   int         `json:"fallbacks"`    // instances solved per-instance after a batch/certify failure
	CertifyMode string      `json:"certify_mode"` //
	Items       []BatchItem `json:"items"`
	ElapsedMS   float64     `json:"elapsed_ms"`
}

func (s *Server) handleSolveBatch(w http.ResponseWriter, r *http.Request) {
	q, timeout, ok := s.openRequest(w, r, true)
	if !ok {
		return
	}
	body, err := readBody(w, r)
	if err != nil {
		bodyError(w, err)
		return
	}
	ps, err := instio.ParseBatch(body)
	if err != nil {
		bodyError(w, err)
		return
	}
	if len(ps) == 0 {
		httpError(w, http.StatusBadRequest, "empty batch")
		return
	}
	// The batch path is exact-only (the batch solve has no approximate
	// variant), so its 422s carry no approx hint.
	if len(ps) > s.cfg.MaxBatch {
		s.rejectOversize(w, &oversizeError{budget: "batch", limit: s.cfg.MaxBatch, got: len(ps),
			msg: fmt.Sprintf("%v: %d instances > max batch %d", errOversize, len(ps), s.cfg.MaxBatch)}, nil)
		return
	}
	for i, p := range ps {
		if oerr := s.admit(p); oerr != nil {
			oerr.msg = fmt.Sprintf("batch instance %d: %s", i, oerr.msg)
			s.rejectOversize(w, oerr, nil)
			return
		}
	}
	s.metrics.BatchRequests.Add(1)
	start := time.Now()
	wantTree := isTrue(q.Get("tree"))

	items := make([]BatchItem, len(ps))
	resp := &BatchResponse{Instances: len(ps), CertifyMode: s.certifyMode.String(), Items: items}

	// Cache pass: canonicalize each instance in place, hash, and serve hits
	// without taking a slot.
	misses := make([]int, 0, len(ps))
	for i, p := range ps {
		hash, err := Hash(canonicalize(p))
		if err != nil {
			s.metrics.Failures.Add(1)
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
		items[i].InstanceHash = hash
		s.mu.Lock()
		ent := s.cache.get(cacheKey(hash, approx.Spec{}))
		s.mu.Unlock()
		if ent != nil {
			s.metrics.CacheHits.Add(1)
			resp.CacheHits++
			s.fillItem(&items[i], ent, true, wantTree)
			continue
		}
		s.metrics.CacheMisses.Add(1)
		misses = append(misses, i)
	}

	if len(misses) > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		if err := s.acquire(ctx); err != nil {
			s.solveError(w, err)
			return
		}
		defer s.release()
		resp.Fallbacks = s.solveMisses(ctx, misses, ps, items, wantTree)
	}
	resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	writeJSON(w, http.StatusOK, resp)
}

// solveMisses solves the batch's cache misses with one core.SolveBatchCtx
// call, certifies and caches each answer independently, and records every
// outcome on the instance's item. It returns how many instances the
// per-instance fallback answered.
func (s *Server) solveMisses(ctx context.Context, misses []int, canons []*core.Problem, items []BatchItem, wantTree bool) (fallbacks int) {
	batch := make([]*core.Problem, len(misses))
	for j, i := range misses {
		batch[j] = canons[i]
	}
	s.metrics.Solves.Add(1)
	start := time.Now()
	sols, err := core.SolveBatchCtx(ctx, batch, s.ranges(), s.stripe)
	s.metrics.observe("batch", time.Since(start))
	if err != nil {
		s.log.Warn("batch solve failed, falling back per instance", "size", len(misses), "err", err)
		s.metrics.EngineFailures.Add(1)
	}
	for j, i := range misses {
		var sol *core.Solution
		if sols != nil {
			sol = sols[j]
		}
		ent, err := s.batchEntry(ctx, canons[i], items[i].InstanceHash, sol)
		if err != nil {
			items[i].Error = err.Error()
			continue
		}
		if ent.rung != "batch" {
			fallbacks++
		}
		s.mu.Lock()
		s.cache.add(ent)
		s.mu.Unlock()
		s.fillItem(&items[i], ent, false, wantTree)
	}
	return fallbacks
}

// batchEntry certifies one member's batch answer. When the batch solve
// delivered none (sol is nil) or certification refused it, it solves the
// member alone on the exact path instead, so the entry's rung is "exact".
func (s *Server) batchEntry(ctx context.Context, canon *core.Problem, hash string, sol *core.Solution) (*cacheEntry, error) {
	if sol != nil {
		ent, err := s.certifiedEntry(canon, hash, "batch", approx.Spec{}, sol)
		if err == nil {
			return ent, nil
		}
		s.log.Warn("batch answer refused, falling back", "hash", hash[:12], "err", err)
	}
	s.metrics.BatchFallback.Add(1)
	return s.solveResilient(ctx, hash, canon, "exact", approx.Spec{Raw: "off"})
}

// fillItem copies a cache entry's answer onto a batch item.
func (s *Server) fillItem(it *BatchItem, ent *cacheEntry, cached, wantTree bool) {
	it.Cached = cached
	it.SolvedBy = ent.rung
	it.Adequate = ent.adequate
	if ent.adequate {
		cost := ent.cost
		it.Cost = &cost
	}
	if ent.tree != nil {
		it.FirstAction = actionName(ent.canon, ent.tree.Action)
		if wantTree {
			it.Tree = ent.tree.Render(ent.canon)
		}
	}
}
