package serve

import (
	"expvar"
	"sync"
	"sync/atomic"
	"time"
)

// latencyHist is a fixed-bucket exponential latency histogram (thresholds
// 1ms, 4ms, 16ms, ... ×4 up to 16s, plus overflow), lock-free on the
// observe path.
type latencyHist struct {
	counts  [histBuckets + 1]atomic.Int64
	n       atomic.Int64
	totalNS atomic.Int64
}

const (
	histBuckets = 8
	histBaseNS  = int64(time.Millisecond)
)

func histLabel(i int) string {
	labels := [histBuckets + 1]string{
		"<1ms", "<4ms", "<16ms", "<64ms", "<256ms", "<1s", "<4s", "<16s", ">=16s",
	}
	return labels[i]
}

func (h *latencyHist) observe(d time.Duration) {
	ns := int64(d)
	bucket := histBuckets
	for i, bound := 0, histBaseNS; i < histBuckets; i, bound = i+1, bound*4 {
		if ns < bound {
			bucket = i
			break
		}
	}
	h.counts[bucket].Add(1)
	h.n.Add(1)
	h.totalNS.Add(ns)
}

func (h *latencyHist) snapshot() map[string]any {
	buckets := make(map[string]int64, histBuckets+1)
	for i := range h.counts {
		if v := h.counts[i].Load(); v > 0 {
			buckets[histLabel(i)] = v
		}
	}
	out := map[string]any{"count": h.n.Load(), "buckets": buckets}
	if n := h.n.Load(); n > 0 {
		out["mean_ms"] = float64(h.totalNS.Load()) / float64(n) / 1e6
	}
	return out
}

// Metrics is the server's counter set, exported at /v1/stats (per server)
// and through the process-wide expvar page at /debug/vars.
type Metrics struct {
	Requests       atomic.Int64 // HTTP requests to /v1/ endpoints
	Solves         atomic.Int64 // solver runs actually executed
	CacheHits      atomic.Int64
	CacheMisses    atomic.Int64
	Coalesced      atomic.Int64 // requests collapsed onto an in-flight solve
	RejectOversize atomic.Int64 // 422: over the K/action budget
	RejectBusy     atomic.Int64 // 503: admission queue full
	RejectDraining atomic.Int64 // 503: shed because the server is draining
	Timeouts       atomic.Int64 // 504: solver deadline exceeded
	ClientGone     atomic.Int64 // client disconnected before the answer
	Failures       atomic.Int64 // 5xx

	// Batch solving (batch.go).
	BatchRequests atomic.Int64 // POST /v1/solve/batch requests admitted past parsing
	BatchFallback atomic.Int64 // batch instances that fell back to a per-instance solve

	// Self-healing path (resilience.go).
	EngineFailures atomic.Int64 // solve attempts that failed for non-context reasons
	Fallbacks      atomic.Int64 // failed exact attempts answered by the approx plane instead

	// Certification (resilience.go): every answer is checked by the
	// engine-independent certifier before it is cached or returned.
	CertifyPass atomic.Int64 // answers that passed certification
	CertifyFail atomic.Int64 // answers refused: certification found a violation

	// Bounded-suboptimality plane (approx.go, docs/RESILIENCE.md).
	ApproxServed atomic.Int64  // answers produced by the approx engine (all gap-certified)
	ApproxExact  atomic.Int64  // of those, proven optimal (branch-and-bound completed)
	approxGapMax atomic.Uint64 // worst certified gap served, milli-units
	approxGapSum atomic.Uint64 // sum of certified gaps served, milli-units (mean = sum/served)

	// Route plane (route.go) and eval validation.
	PolicyPublishes atomic.Int64 // compiled policy artifacts published
	RouteSessions   atomic.Int64 // route sessions started
	RouteSteps      atomic.Int64 // route steps served (solo and batch members)
	RouteDone       atomic.Int64 // sessions that reached a treating leaf
	RouteBadCursor  atomic.Int64 // cursors rejected: malformed, tampered, or bound to an evicted artifact
	EvalMalformed   atomic.Int64 // 422: /v1/eval policy parsed but encodes no valid procedure

	mu        sync.Mutex
	perEngine map[string]*latencyHist
}

func newMetrics() *Metrics {
	return &Metrics{perEngine: make(map[string]*latencyHist)}
}

// observeGap records one gap-certified approx answer's certified ratio.
// Inadequate answers report GapScale (their witness is exact); saturated
// gaps are clamped so one pathological instance cannot wreck the sum.
func (m *Metrics) observeGap(gapMilli uint64) {
	const clamp = 1 << 32
	if gapMilli > clamp {
		gapMilli = clamp
	}
	m.approxGapSum.Add(gapMilli)
	for {
		cur := m.approxGapMax.Load()
		if gapMilli <= cur || m.approxGapMax.CompareAndSwap(cur, gapMilli) {
			return
		}
	}
}

// observe records one completed solver run for an engine.
func (m *Metrics) observe(engine string, d time.Duration) {
	m.mu.Lock()
	h, ok := m.perEngine[engine]
	if !ok {
		h = &latencyHist{}
		m.perEngine[engine] = h
	}
	m.mu.Unlock()
	h.observe(d)
}

// Snapshot renders every counter and histogram as a JSON-ready map.
func (m *Metrics) Snapshot() map[string]any {
	engines := make(map[string]any)
	m.mu.Lock()
	for name, h := range m.perEngine {
		engines[name] = h.snapshot()
	}
	m.mu.Unlock()
	return map[string]any{
		"requests":             m.Requests.Load(),
		"solves":               m.Solves.Load(),
		"cache_hits":           m.CacheHits.Load(),
		"cache_misses":         m.CacheMisses.Load(),
		"coalesced":            m.Coalesced.Load(),
		"reject_oversize":      m.RejectOversize.Load(),
		"reject_busy":          m.RejectBusy.Load(),
		"reject_draining":      m.RejectDraining.Load(),
		"timeouts":             m.Timeouts.Load(),
		"client_gone":          m.ClientGone.Load(),
		"failures":             m.Failures.Load(),
		"batch_requests":       m.BatchRequests.Load(),
		"batch_fallback":       m.BatchFallback.Load(),
		"engine_failures":      m.EngineFailures.Load(),
		"fallbacks":            m.Fallbacks.Load(),
		"certify_pass":         m.CertifyPass.Load(),
		"certify_fail":         m.CertifyFail.Load(),
		"approx_served":        m.ApproxServed.Load(),
		"approx_exact":         m.ApproxExact.Load(),
		"approx_gap_milli_max": m.approxGapMax.Load(),
		"approx_gap_milli_sum": m.approxGapSum.Load(),
		"policy_publishes":     m.PolicyPublishes.Load(),
		"route_sessions":       m.RouteSessions.Load(),
		"route_steps":          m.RouteSteps.Load(),
		"route_done":           m.RouteDone.Load(),
		"route_bad_cursor":     m.RouteBadCursor.Load(),
		"eval_malformed":       m.EvalMalformed.Load(),
		"engine_latency":       engines,
	}
}

// meanSolveSeconds is the observed mean solve latency across all engines,
// 0 when nothing has been observed yet. Feeds the Retry-After estimate.
func (m *Metrics) meanSolveSeconds() float64 {
	var n, totalNS int64
	m.mu.Lock()
	for _, h := range m.perEngine {
		n += h.n.Load()
		totalNS += h.totalNS.Load()
	}
	m.mu.Unlock()
	if n == 0 {
		return 0
	}
	return float64(totalNS) / float64(n) / 1e9
}

// publishStats exposes a server's stats payload as the process-wide
// "ttserve" expvar. expvar names are global and re-publishing panics, so
// only the first server in a process is published — the normal case for
// cmd/ttserve; test servers beyond the first keep their per-server /v1/stats
// endpoint.
var publishExpvar sync.Once

func publishStats(payload func() map[string]any) {
	publishExpvar.Do(func() {
		expvar.Publish("ttserve", expvar.Func(func() any { return payload() }))
	})
}
