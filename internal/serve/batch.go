package serve

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"net/http"
	"strconv"
	"time"

	"repro/internal/approx"
	"repro/internal/certify"
	"repro/internal/core"
	"repro/internal/instio"
)

// POST /v1/solve/batch: solve several related instances in one request. The
// typical batch shares a subset lattice (same K, same per-index (Set,
// Treatment) after canonicalization — the "re-priced" workloads of the
// paper's applications: yesterday's diagnosis instance under today's
// prevalences, the same breakdown structure under new repair quotes).
//
// The handler admits every instance individually under the same K/action
// budget as /v1/solve, serves cache hits without solving, groups the misses
// by an order-normalized lattice hash, and runs each group through
// core.SolveBatchCtx, which splits the group's instances across the stripe
// pool and solves each with the solo exact sweep. Every instance's answer
// is certified independently before it enters the shared LRU (the same
// certify-before-cache contract as /v1/solve); an instance whose group
// solve or certification fails falls back to the per-instance resilient
// path rather than failing the batch. Batch solves bypass the singleflight
// map (the group itself is the coalescing mechanism) but populate the same
// cache, so follow-up /v1/solve requests for any member hit.
//
// Admission accounting: one batch request occupies one solver slot (and one
// MaxPending unit) for its whole duration — the group solve already
// parallelizes internally over the stripe pool, on as many ranges as a solo
// solve would get, so letting each group grab its own slot would
// double-count the same CPUs.

// BatchItem is one instance's slice of the /v1/solve/batch reply.
type BatchItem struct {
	InstanceHash string  `json:"instance_hash"`
	Cached       bool    `json:"cached"`              // served from the LRU without solving
	Group        int     `json:"group"`               // shared-lattice group index; -1 when cached or solved alone
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
	Groups      int         `json:"groups"`       // shared-lattice groups actually batch-solved
	Repriced    int         `json:"repriced"`     // batch-solved instances beyond each group's first
	CacheHits   int         `json:"cache_hits"`   //
	Fallbacks   int         `json:"fallbacks"`    // instances solved per-instance after a group/certify failure
	CertifyMode string      `json:"certify_mode"` //
	Items       []BatchItem `json:"items"`
	ElapsedMS   float64     `json:"elapsed_ms"`
}

// latticeKey fingerprints the subset lattice of a *canonicalized* instance:
// K plus the per-index (Set, Treatment) sequence. Canonicalize sorts actions
// by (Set, Treatment) first, so the sequence — and hence the key — is
// invariant under the costs, weights, names, and original action order;
// equal keys imply core.SameLattice on the canonical forms.
func latticeKey(canon *core.Problem) uint64 {
	h := fnv.New64a()
	var buf [9]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(canon.K))
	buf[8] = 0
	h.Write(buf[:])
	for _, a := range canon.Actions {
		binary.LittleEndian.PutUint64(buf[:8], uint64(a.Set))
		buf[8] = 0
		if a.Treatment {
			buf[8] = 1
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// acquire takes one admission unit (MaxPending) and one solver slot; the
// returned release must be called exactly once. It is the batch-path
// equivalent of runSolve's inline accounting.
func (s *Server) acquire(ctx context.Context) (release func(), err error) {
	if s.pending.Add(1) > int64(s.cfg.MaxPending) {
		s.pending.Add(-1)
		return nil, errBusy
	}
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		s.pending.Add(-1)
		return nil, ctx.Err()
	}
	return func() {
		<-s.sem
		s.pending.Add(-1)
	}, nil
}

func (s *Server) handleSolveBatch(w http.ResponseWriter, r *http.Request) {
	s.metrics.Requests.Add(1)
	if s.draining.Load() {
		s.rejectShed(w, true)
		return
	}
	q := r.URL.Query()
	if s.rejectRetiredParams(w, q) {
		return
	}
	timeout := s.cfg.DefaultTimeout
	if ms := q.Get("timeout_ms"); ms != "" {
		n, err := strconv.ParseInt(ms, 10, 64)
		if err != nil || n <= 0 {
			httpError(w, http.StatusBadRequest, "timeout_ms must be a positive integer")
			return
		}
		timeout = min(time.Duration(n)*time.Millisecond, s.cfg.MaxTimeout)
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
	// The batch path is exact-only (the group solve has no approximate
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
		items[i] = BatchItem{InstanceHash: hash, Group: -1}
		s.mu.Lock()
		ent := s.cache.get(cacheKey(hash, approx.Spec{}))
		s.mu.Unlock()
		if ent != nil {
			s.metrics.CacheHits.Add(1)
			resp.CacheHits++
			s.fillItem(&items[i], ent, true, isTrue(q.Get("tree")))
			continue
		}
		s.metrics.CacheMisses.Add(1)
		misses = append(misses, i)
	}

	if len(misses) > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		release, err := s.acquire(ctx)
		if err != nil {
			s.solveError(w, err)
			return
		}
		defer release()

		// Group the misses by lattice fingerprint, preserving request order
		// within each group.
		groupOf := make(map[uint64]int)
		var groups [][]int
		for _, i := range misses {
			k := latticeKey(ps[i])
			gi, ok := groupOf[k]
			if !ok {
				gi = len(groups)
				groupOf[k] = gi
				groups = append(groups, nil)
			}
			groups[gi] = append(groups[gi], i)
		}
		resp.Groups = len(groups)
		for gi, idxs := range groups {
			resp.Repriced += s.solveBatchGroup(ctx, gi, idxs, ps, items, isTrue(q.Get("tree")))
		}
		for _, i := range misses {
			if items[i].SolvedBy != "" && items[i].SolvedBy != "batch" {
				resp.Fallbacks++
			}
		}
	}
	resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	writeJSON(w, http.StatusOK, resp)
}

// solveBatchGroup solves one shared-lattice group with core.SolveBatchCtx,
// certifies and caches each instance's answer independently, and falls back
// to the per-instance resilient path for any instance the group could not
// deliver. It returns the group's repriced count (group size − 1 on
// success, 0 when the whole group fell back).
func (s *Server) solveBatchGroup(ctx context.Context, gi int, idxs []int, canons []*core.Problem, items []BatchItem, wantTree bool) (repriced int) {
	group := make([]*core.Problem, len(idxs))
	for j, i := range idxs {
		group[j] = canons[i]
	}
	s.metrics.Solves.Add(1)
	gStart := time.Now()
	sols, err := core.SolveBatchCtx(ctx, group, s.ranges(), s.stripe)
	s.metrics.observe("batch", time.Since(gStart))
	if err != nil {
		s.log.Warn("batch group failed, falling back per instance", "group", gi, "size", len(idxs), "err", err)
		s.metrics.EngineFailures.Add(1)
		for _, i := range idxs {
			s.solveBatchFallback(ctx, i, canons[i], items, wantTree)
		}
		return 0
	}
	s.metrics.BatchGroups.Add(1)
	if n := len(idxs) - 1; n > 0 {
		s.metrics.BatchRepriced.Add(int64(n))
		repriced = n
	}
	for j, i := range idxs {
		sol := sols[j]
		ent, err := s.certifyBatchAnswer(canons[i], items[i].InstanceHash, sol)
		sol.Release()
		if err != nil {
			s.log.Warn("batch answer refused, falling back", "group", gi, "instance", i, "err", err)
			s.solveBatchFallback(ctx, i, canons[i], items, wantTree)
			continue
		}
		s.mu.Lock()
		s.cache.add(ent)
		s.mu.Unlock()
		items[i].Group = gi
		s.fillItem(&items[i], ent, false, wantTree)
	}
	return repriced
}

// certifyBatchAnswer turns one instance's batch solution into a certified
// cache entry: tree reconstruction from the cost plane, then the same
// engine-independent certifier gate every /v1/solve answer passes before it
// can be cached. The caller releases sol.
func (s *Server) certifyBatchAnswer(canon *core.Problem, hash string, sol *core.Solution) (*cacheEntry, error) {
	ent := &cacheEntry{rung: "batch", cost: sol.Cost, adequate: sol.Adequate(),
		canon: canon, hash: hash, key: cacheKey(hash, approx.Spec{})}
	if ent.adequate {
		tree, err := core.TreeFromCosts(canon, sol.C)
		if err != nil {
			return nil, err
		}
		ent.tree = tree
	}
	rep := certify.Check(canon, sol.Cost, ent.tree, sol.C, nil, s.certifyMode, certifySeed(hash))
	if !rep.OK() {
		s.metrics.CertifyFail.Add(1)
		return nil, fmt.Errorf("serve: batch answer refused: %w", rep.Err())
	}
	s.metrics.CertifyPass.Add(1)
	ent.bytes = entryBytes(ent)
	return ent, nil
}

// solveBatchFallback solves one instance alone on the exact path after its
// group could not deliver a certified answer, and records the outcome —
// success or error — on its batch item.
func (s *Server) solveBatchFallback(ctx context.Context, i int, canon *core.Problem, items []BatchItem, wantTree bool) {
	s.metrics.BatchFallback.Add(1)
	ent, err := s.solveResilient(ctx, items[i].InstanceHash, canon, "exact", approx.Spec{Raw: "off"})
	if err != nil {
		items[i].Error = err.Error()
		return
	}
	s.mu.Lock()
	s.cache.add(ent)
	s.mu.Unlock()
	s.fillItem(&items[i], ent, false, wantTree)
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
