// Package serve implements the ttserve HTTP solver service: a long-running
// request/response front end over the repository's TT solver engines. The
// paper's own applications — medical diagnosis, logistical breakdown
// correction — are serving workloads (the same instance is solved once and
// queried many times, under response-time expectations), and this package
// supplies the production shape for them:
//
//   - POST /v1/solve  — solve an instio-format instance exactly, with a
//     per-request deadline, an optional approx= knob, and optional
//     procedure-tree rendering;
//   - POST /v1/eval   — evaluate a stored policy against a weight vector
//     (the misspecified-prior question served online);
//   - GET  /healthz, /v1/stats, /debug/vars, /debug/pprof — liveness,
//     per-server counters, process expvar, and profiling.
//
// Three mechanisms keep it stable under heavy traffic: an LRU cache keyed by
// a canonical instance hash (action order normalized, so permuted re-asks of
// the same instance hit one slot) with singleflight collapsing of concurrent
// identical requests; admission control (a solver semaphore, a bounded
// pending queue, and a K/action budget that 422s oversized instances before
// they can allocate 2^K state); and context plumbing through every engine,
// so deadlines and client disconnects actually stop the O(N·2^K) sweep.
//
// Every answer is certified before it is cached or returned, in the one
// server-wide mode Config.CertifyMode sets (fast or audit); there is no
// per-request certify= parameter and no off switch. The paper's simulated
// machines (lockstep, goroutine, ccc, bvm) compute the same C(U) as the host
// DP, only slower, so they are not served: ttsolve -engine runs them.
//
// Every solve runs inside this process, on one exact path: the host DP, its
// subcube blocks run on as many stripe-pool workers as are spare for it. A
// failed exact attempt falls through to approx only when the request
// enabled it; otherwise it is a 500. Nothing outlives the request, so one
// instance's faults never refuse another instance's request.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/approx"
	"repro/internal/certify"
	"repro/internal/core"
	"repro/internal/instio"
	"repro/internal/policy"
	"repro/internal/stripe"
)

// maxBodyBytes bounds request bodies; the largest admissible instance is a
// few tens of kilobytes of JSON.
const maxBodyBytes = 1 << 20

// bodyHint is the largest Content-Length readBody allocates for before the
// body arrives, so a client that declares a length and then stalls pins at
// most this much. It holds every instance solve-hot's clients send (k <= 13)
// several times over; a longer body grows as its bytes come.
const bodyHint = 64 << 10

// Config tunes the service; zero values select the defaults noted per field.
type Config struct {
	MaxConcurrent  int           // simultaneous solver runs (default GOMAXPROCS)
	MaxPending     int           // queued+running solves before shedding with 503 (default 4×MaxConcurrent)
	CacheEntries   int           // LRU capacity in solved instances (default 1024; negative disables)
	CacheBytes     int64         // LRU byte budget across cached entries (default 0: entry count only)
	DefaultTimeout time.Duration // per-request solve budget (default 10s)
	MaxTimeout     time.Duration // ceiling on client-requested timeouts (default 60s)
	MaxK           int           // admission: largest universe accepted (default 20)
	MaxActions     int           // admission: most actions accepted (default 64)
	MaxBatch       int           // admission: most instances per /v1/solve/batch request (default 16)
	PolicyBytes    int64         // byte budget for compiled route-plane policies (default 64 MiB; negative: unbounded)
	RouteMaxBatch  int           // most sessions or cursors per /v1/route/batch request (default 4096)
	StripeWorkers  int           // dedicated stripe-pool workers for striped/batched sweeps (default 0: share the process-wide pool)
	CertifyMode    string        // answer certification for every answer: "fast" or "audit" (default "fast")
	Logger         *slog.Logger  // structured request log (default slog.Default())

	// Bounded-suboptimality plane (approx.go, docs/RESILIENCE.md).
	DefaultApprox    string // approx knob when the request sends none: "off", a ratio ≥ 1, or a duration (default "off")
	ApproxMaxK       int    // approx admission: largest universe accepted (default core.MaxK — every K the Set type expresses)
	ApproxMaxActions int    // approx admission: most actions accepted (default 256)
	ApproxNodes      int64  // branch-and-bound node budget per solve (default 1<<20; negative disables B&B, greedy only)

	// Chaos hooks, wired to ttserve's -chaos-* flags; zero in production.
	// Both are keyed by rung: "exact" or "approx"; ResultFault also sees
	// "batch", the rung of answers out of /v1/solve/batch.
	EngineFault func(rung string) error // called before each solve attempt; error or panic = engine fault
	ResultFault func(rung string) bool  // true = silently corrupt this attempt's answer before certification
	LevelDelay  time.Duration           // artificial pause at each of the K−1 progress reports of a single exact solve; batch solves never pause
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.MaxPending <= 0 {
		c.MaxPending = 4 * c.MaxConcurrent
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 1024
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.MaxK <= 0 {
		c.MaxK = 20
	}
	if c.MaxK > core.MaxK {
		c.MaxK = core.MaxK
	}
	if c.MaxActions <= 0 {
		c.MaxActions = 64
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 16
	}
	if c.PolicyBytes == 0 {
		c.PolicyBytes = 64 << 20
	}
	if c.RouteMaxBatch <= 0 {
		c.RouteMaxBatch = 4096
	}
	if c.DefaultApprox == "" {
		c.DefaultApprox = "off"
	}
	if c.ApproxMaxK <= 0 || c.ApproxMaxK > core.MaxK {
		c.ApproxMaxK = core.MaxK
	}
	if c.ApproxMaxActions <= 0 {
		c.ApproxMaxActions = 256
	}
	if c.ApproxNodes == 0 {
		c.ApproxNodes = 1 << 20
	}
	if c.CertifyMode == "" {
		c.CertifyMode = "fast"
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

var (
	errOversize = errors.New("instance exceeds the configured size budget")
	errBusy     = errors.New("server is at solve capacity")
)

// flightCall is one in-flight solve that concurrent identical requests
// attach to instead of re-solving (singleflight). waiters is guarded by the
// server mutex; when the last waiter abandons the call, the solve context is
// cancelled so the engine actually stops.
type flightCall struct {
	done    chan struct{}
	cancel  context.CancelFunc
	entry   *cacheEntry
	err     error
	waiters int
}

// Server is the solver service. Create with New, mount Handler on an
// http.Server, and Close only after that server has drained.
type Server struct {
	cfg           Config
	log           *slog.Logger
	mux           *http.ServeMux
	metrics       *Metrics
	certifyMode   certify.Mode // parsed Config.CertifyMode: every answer passes it
	defaultApprox approx.Spec  // parsed Config.DefaultApprox, the per-server default

	sem      chan struct{} // solver semaphore, capacity MaxConcurrent
	pending  atomic.Int64  // queued+running solves, bounded by MaxPending
	reqID    atomic.Int64
	draining atomic.Bool

	policies *policy.Store   // compiled route-plane artifacts (route.go)
	keyring  *policy.Keyring // signs and verifies route session cursors
	routeSID atomic.Uint32   // session ids for new route sessions

	stripe *stripe.Pool // worker pool behind the exact DP's blocks and batch sweeps

	baseCtx    context.Context // parent of every solve context; Close cancels it
	baseCancel context.CancelFunc

	mu      sync.Mutex
	cache   *lruCache
	flights map[string]*flightCall
}

// New builds a Server from cfg (zero value is a sensible default).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	mode, err := ParseCertifyMode(cfg.CertifyMode)
	if err != nil {
		cfg.Logger.Warn("invalid certify mode, using fast", "mode", cfg.CertifyMode)
		mode = certify.ModeFast
	}
	defaultApprox, err := approx.ParseSpec(cfg.DefaultApprox)
	if err != nil {
		cfg.Logger.Warn("invalid default approx setting, using off", "approx", cfg.DefaultApprox, "err", err)
		defaultApprox = approx.Spec{Raw: "off"}
	}
	//ttlint:ignore ctxflow the server's lifecycle root: every request context derives from it and Close cancels it
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:           cfg,
		certifyMode:   mode,
		defaultApprox: defaultApprox,
		log:           cfg.Logger,
		mux:           http.NewServeMux(),
		metrics:       newMetrics(),
		sem:           make(chan struct{}, cfg.MaxConcurrent),
		baseCtx:       ctx,
		baseCancel:    cancel,
		cache:         newLRU(cfg.CacheEntries, cfg.CacheBytes),
		flights:       make(map[string]*flightCall),
	}
	if cfg.StripeWorkers > 0 {
		s.stripe = stripe.New(cfg.StripeWorkers)
	} else {
		s.stripe = stripe.Shared()
	}
	budget := cfg.PolicyBytes
	if budget < 0 {
		budget = 0 // store semantics: 0 = unbounded
	}
	s.policies = policy.NewStore(budget)
	kr, err := policy.NewKeyring()
	if err != nil {
		// crypto/rand failing means the platform is unusable; refuse to build
		// a server that would sign forgeable cursors.
		panic(fmt.Sprintf("serve: cursor keyring: %v", err))
	}
	s.keyring = kr
	s.mux.HandleFunc("POST /v1/solve", s.handleSolve)
	s.mux.HandleFunc("POST /v1/solve/batch", s.handleSolveBatch)
	s.mux.HandleFunc("POST /v1/eval", s.handleEval)
	s.mux.HandleFunc("POST /v1/policy", s.handlePolicyPublish)
	s.mux.HandleFunc("GET /v1/policies", s.handlePolicyList)
	s.mux.HandleFunc("POST /v1/route", s.handleRoute)
	s.mux.HandleFunc("POST /v1/route/batch", s.handleRouteBatch)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.Handle("GET /debug/vars", expvar.Handler())
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	publishStats(s.statsPayload)
	return s
}

// Handler returns the service's HTTP handler with request logging attached.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := s.reqID.Add(1)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		s.mux.ServeHTTP(rec, r)
		s.log.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.Int64("id", id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", rec.status),
			slog.Float64("dur_ms", float64(time.Since(start).Microseconds())/1000))
	})
}

// Metrics exposes the server's counters (also served at /v1/stats).
func (s *Server) Metrics() *Metrics { return s.metrics }

// CacheLen reports the number of cached solved instances.
func (s *Server) CacheLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache.len()
}

// SetDraining flips the /healthz readiness signal, so load balancers stop
// routing new work while the HTTP server drains.
func (s *Server) SetDraining(d bool) { s.draining.Store(d) }

// Close cancels every in-flight solve context. Call it only after the HTTP
// server has drained (http.Server.Shutdown) — accepted requests finish
// first, then Close reaps anything still running past the drain deadline.
func (s *Server) Close() { s.baseCancel() }

// --- /v1/solve ---

// SolveResponse is the /v1/solve reply.
type SolveResponse struct {
	InstanceHash string  `json:"instance_hash"`
	K            int     `json:"k"`
	Actions      int     `json:"actions"`
	Engine       string  `json:"engine"`              // rung the request was dispatched to: exact, or approx past the exact budget
	SolvedBy     string  `json:"solved_by"`           // rung that produced the answer: exact or approx
	Cached       bool    `json:"cached"`              // served from the LRU without solving
	Coalesced    bool    `json:"coalesced,omitempty"` // shared a concurrent identical solve
	CertifyMode  string  `json:"certify_mode"`        // the server's certification mode, which the answer passed: fast or audit
	Adequate     bool    `json:"adequate"`
	Cost         *uint64 `json:"cost,omitempty"` // C(U); absent when inadequate
	FirstAction  string  `json:"first_action,omitempty"`
	Tree         string  `json:"tree,omitempty"`
	ElapsedMS    float64 `json:"elapsed_ms"`

	// Bounded-suboptimality answers only (absent on the exact path): the
	// approx knob in force and the certified quality claim — re-priced
	// cost ≤ gap_milli/1000 × optimum, lower_bound ≤ optimum, both verified
	// by the certifier before the answer could be cached or returned.
	Approx       string  `json:"approx,omitempty"`
	GapMilli     *uint64 `json:"gap_milli,omitempty"`
	LowerBound   *uint64 `json:"lower_bound,omitempty"`
	ApproxPolicy string  `json:"approx_policy,omitempty"` // greedy-ratio, greedy-gain, bb
	ApproxExact  bool    `json:"approx_exact,omitempty"`  // branch-and-bound completed: proven optimal
}

// ParseCertifyMode parses a server certification mode: fast (also "") or
// audit. Every served answer is certified, so there is no off.
func ParseCertifyMode(name string) (certify.Mode, error) {
	switch name {
	case "fast", "":
		return certify.ModeFast, nil
	case "audit":
		return certify.ModeAudit, nil
	}
	return certify.ModeFast, fmt.Errorf("certify mode %q: want fast or audit (every answer is certified)", name)
}

// rejectRetiredParams answers 400 for query parameters the service no longer
// takes, naming where their behaviour went, and reports whether it did.
// engine=seq and engine=parallel stay accepted as names of the one exact
// path; any other engine — the paper's simulated machines, which compute the
// same C(U) as the host DP, only slower, or the retired TCP cluster plane —
// is refused.
func (s *Server) rejectRetiredParams(w http.ResponseWriter, q url.Values) bool {
	switch e := q.Get("engine"); {
	case e != "" && e != "seq" && e != "parallel":
		httpError(w, http.StatusBadRequest, fmt.Sprintf("engine %q is not served: omit engine=, every exact solve runs one path; "+
			"ttsolve -engine still runs the simulated machines (lockstep, goroutine, ccc, bvm)", e))
	case q.Has("certify"):
		httpError(w, http.StatusBadRequest, fmt.Sprintf(
			"certify= is not a request parameter: every answer is certified in this server's %q mode (ttserve -certify)", s.certifyMode))
	case q.Has("greedy"):
		httpError(w, http.StatusBadRequest, "greedy= is not served: use ttsolve -greedy, or approx= for a certified heuristic answer")
	default:
		return false
	}
	return true
}

// rejectShed is the single load-shedding rejection seam: every 503 the
// server emits — draining or at capacity, solo or batch, solve or policy
// publish — goes through it, so no handler can forget the Retry-After
// header or the shed counter. Draining sheds with a constant 1s (the client
// should move to a replica, not wait out this process); capacity sheds with
// the queue-derived estimate.
func (s *Server) rejectShed(w http.ResponseWriter, draining bool) {
	if draining {
		s.metrics.RejectDraining.Add(1)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	s.metrics.RejectBusy.Add(1)
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	httpError(w, http.StatusServiceUnavailable, errBusy.Error())
}

// openRequest is the prelude of every handler that may solve (/v1/solve,
// /v1/solve/batch, /v1/policy): it counts the request, sheds it while the
// server drains, and refuses retired query parameters. When timed is set it
// also parses timeout_ms, capped at MaxTimeout; otherwise, or when the
// request sends none, the timeout is DefaultTimeout. It reports false when
// it has already answered the request.
func (s *Server) openRequest(w http.ResponseWriter, r *http.Request, timed bool) (q url.Values, timeout time.Duration, ok bool) {
	s.metrics.Requests.Add(1)
	if s.draining.Load() {
		// A draining process sheds new solves immediately: the client should
		// retry against a replica, not wait out this process's shutdown.
		s.rejectShed(w, true)
		return nil, 0, false
	}
	q = r.URL.Query()
	if s.rejectRetiredParams(w, q) {
		return nil, 0, false
	}
	timeout = s.cfg.DefaultTimeout
	if ms := q.Get("timeout_ms"); timed && ms != "" {
		n, err := strconv.ParseInt(ms, 10, 64)
		if err != nil || n <= 0 {
			httpError(w, http.StatusBadRequest, "timeout_ms must be a positive integer")
			return nil, 0, false
		}
		timeout = min(time.Duration(n)*time.Millisecond, s.cfg.MaxTimeout)
	}
	return q, timeout, true
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	q, timeout, ok := s.openRequest(w, r, true)
	if !ok {
		return
	}
	ap := s.defaultApprox
	if q.Has("approx") {
		var err error
		if ap, err = approx.ParseSpec(q.Get("approx")); err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	p, err := readInstance(w, r)
	if err != nil {
		bodyError(w, err)
		return
	}
	rung := "exact"
	if oerr := s.admit(p); oerr != nil {
		// Past the exact-DP budget. With approx enabled the instance routes
		// to the anytime engine (its own, much looser, caps permitting)
		// instead of failing; with approx off the 422 names the exceeded
		// budget and the smallest setting that would have been accepted.
		if !ap.Enabled || s.admitApprox(p) != nil {
			s.rejectOversize(w, oerr, p)
			return
		}
		rung = "approx"
	}
	canon := canonicalize(p)
	hash, err := Hash(canon)
	if err != nil {
		s.metrics.Failures.Add(1)
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}

	start := time.Now()
	ent, cached, coalesced, err := s.solveShared(r.Context(), hash, canon, rung, ap, timeout)
	if err != nil {
		s.solveError(w, err)
		return
	}
	resp := SolveResponse{
		InstanceHash: ent.hash,
		K:            canon.K,
		Actions:      len(canon.Actions),
		Engine:       rung,
		SolvedBy:     ent.rung,
		Cached:       cached,
		Coalesced:    coalesced,
		CertifyMode:  s.certifyMode.String(),
		Adequate:     ent.adequate,
		ElapsedMS:    float64(time.Since(start).Microseconds()) / 1000,
	}
	if ent.adequate {
		cost := ent.cost
		resp.Cost = &cost
	}
	if ent.approx {
		// All new fields ride only on approx-served answers, so the exact
		// path's response bytes are identical to what they were before the
		// approx plane existed.
		gap, lb := ent.gapMilli, ent.lowerBound
		resp.Approx = ap.Raw
		resp.GapMilli = &gap
		resp.LowerBound = &lb
		resp.ApproxPolicy = ent.approxPolicy
		resp.ApproxExact = ent.approxExact
	}
	if ent.tree != nil {
		resp.FirstAction = actionName(ent.canon, ent.tree.Action)
		if isTrue(q.Get("tree")) {
			resp.Tree = ent.tree.Render(ent.canon)
		}
	}
	b := appendSolveResponse(make([]byte, 0, 512), &resp) // 512 bytes hold every reply but a rendered tree
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(b) // the client is gone if this fails
}

// admit enforces the exact-DP size budget, checked before any 2^K
// allocation so an oversized instance costs the server nothing but the
// parse. The returned rejection names the budget it enforces (for the
// structured 422 body) and unwraps to errOversize.
func (s *Server) admit(p *core.Problem) *oversizeError {
	if p.K > s.cfg.MaxK {
		return &oversizeError{budget: "k", limit: s.cfg.MaxK, got: p.K,
			msg: fmt.Sprintf("%v: %d objects > max %d", errOversize, p.K, s.cfg.MaxK)}
	}
	if len(p.Actions) > s.cfg.MaxActions {
		return &oversizeError{budget: "actions", limit: s.cfg.MaxActions, got: len(p.Actions),
			msg: fmt.Sprintf("%v: %d actions > max %d", errOversize, len(p.Actions), s.cfg.MaxActions)}
	}
	return nil
}

// solveShared resolves one request to a cache entry: LRU hit, attach to an
// identical in-flight solve, or start the solve. Cache and singleflight share
// one key, cacheKey(hash, ap). The solve runs under its own context (derived from the server, bounded by timeout), so it
// survives any single client's disconnect while other waiters remain — and
// stops as soon as the last waiter is gone. A request waits on a solve,
// joined or started, for at most timeout; a hit waits on nothing, so the
// deadline and its timer are made only after a first look in the cache
// misses (the loop looks again, since a solve may land in between).
func (s *Server) solveShared(ctx context.Context, hash string, canon *core.Problem, rung string, ap approx.Spec, timeout time.Duration) (ent *cacheEntry, cached, coalesced bool, err error) {
	key := cacheKey(hash, ap)
	s.mu.Lock()
	e := s.cache.get(key)
	s.mu.Unlock()
	if e != nil {
		s.metrics.CacheHits.Add(1)
		return e, true, false, nil
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	for attempt := 0; ; attempt++ {
		s.mu.Lock()
		if e := s.cache.get(key); e != nil {
			s.mu.Unlock()
			s.metrics.CacheHits.Add(1)
			return e, true, false, nil
		}
		s.metrics.CacheMisses.Add(1)
		if c, ok := s.flights[key]; ok {
			c.waiters++
			s.mu.Unlock()
			s.metrics.Coalesced.Add(1)
			e, err := s.await(ctx, c)
			if err != nil && errors.Is(err, context.Canceled) {
				// The flight was cancelled by its other waiters abandoning
				// it — that cancellation was theirs, not ours.
				if ctxErr := ctx.Err(); ctxErr != nil {
					// Our own context ended too (await's select can surface
					// either side when both fire together): report our own
					// terminal state — a deadline must map to 504, not to a
					// "request cancelled" the client never issued.
					return e, false, true, ctxErr
				}
				if attempt < 2 {
					// We joined in the narrow window after the last waiter
					// abandoned the flight but before it was unmapped —
					// re-enter and solve fresh.
					continue
				}
			}
			return e, false, true, err
		}
		solveCtx, stop := context.WithTimeout(s.baseCtx, timeout)
		c := &flightCall{done: make(chan struct{}), cancel: stop, waiters: 1}
		s.flights[key] = c
		s.mu.Unlock()
		go s.runSolve(solveCtx, hash, key, c, canon, rung, ap)
		e, err := s.await(ctx, c)
		return e, false, false, err
	}
}

// await blocks until the shared solve finishes or this request's own
// context ends; an abandoning waiter that was the last one cancels the
// solve so the engine goroutines actually stop.
func (s *Server) await(ctx context.Context, c *flightCall) (*cacheEntry, error) {
	select {
	case <-c.done:
		return c.entry, c.err
	case <-ctx.Done():
		s.mu.Lock()
		c.waiters--
		last := c.waiters == 0
		s.mu.Unlock()
		if last {
			c.cancel()
		}
		return nil, ctx.Err()
	}
}

// runSolve executes one admitted solve under the pool semaphore and
// publishes the result to every waiter and (on success) the cache. The solve
// itself goes through the resilient path: the approx fallback and
// certification (resilience.go).
func (s *Server) runSolve(ctx context.Context, hash, key string, c *flightCall, canon *core.Problem, rung string, ap approx.Spec) {
	defer c.cancel()
	// A panicking solve must still publish to its waiters — as a failure —
	// or they block on c.done forever. Successful answers are published in
	// the straight-line path below, after certification, so this handler
	// never inserts into the cache.
	defer func() {
		if r := recover(); r != nil {
			s.mu.Lock()
			delete(s.flights, key)
			c.entry, c.err = nil, fmt.Errorf("serve: %s solve panicked: %v", rung, r)
			s.mu.Unlock()
			close(c.done)
		}
	}()
	var ent *cacheEntry
	var err error
	func() {
		if err = s.acquire(ctx); err != nil {
			return
		}
		defer s.release()
		ent, err = s.solveResilient(ctx, hash, canon, rung, ap)
	}()
	s.mu.Lock()
	delete(s.flights, key)
	c.entry, c.err = ent, err
	if err == nil {
		s.cache.add(ent)
	}
	s.mu.Unlock()
	close(c.done)
}

// acquire is the one admission seam for solves, solo and batch: it takes one
// MaxPending unit, failing with errBusy when the queue is full, then waits
// for a solver slot until ctx ends. After a nil error the caller must call
// release exactly once.
func (s *Server) acquire(ctx context.Context) error {
	if s.pending.Add(1) > int64(s.cfg.MaxPending) {
		s.pending.Add(-1)
		return errBusy
	}
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		s.pending.Add(-1)
		return ctx.Err()
	}
}

// release returns the solver slot and the MaxPending unit acquire took.
func (s *Server) release() {
	<-s.sem
	s.pending.Add(-1)
}

// solveError maps a solve failure to its HTTP status and counter.
func (s *Server) solveError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.metrics.Timeouts.Add(1)
		httpError(w, http.StatusGatewayTimeout, "solve deadline exceeded")
	case errors.Is(err, errBusy):
		s.rejectShed(w, false)
	case errors.Is(err, context.Canceled):
		// The client went away (or the server is closing); nobody will read
		// the body, but account for it.
		s.metrics.ClientGone.Add(1)
		httpError(w, http.StatusServiceUnavailable, "request cancelled")
	default:
		s.metrics.Failures.Add(1)
		httpError(w, http.StatusInternalServerError, err.Error())
	}
}

// --- /v1/eval ---

// EvalRequest asks for a stored policy's expected cost under a weight
// vector — the deployed-procedure evaluation (including drifted priors)
// served online.
type EvalRequest struct {
	Policy  *core.Policy `json:"policy"`
	Weights []uint64     `json:"weights"`
}

// EvalResponse is the /v1/eval reply.
type EvalResponse struct {
	Cost   uint64 `json:"cost"`
	States int    `json:"states"`
	Nodes  int    `json:"nodes"`
	Depth  int    `json:"depth"`
}

func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	s.metrics.Requests.Add(1)
	var req EvalRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("parsing eval request: %v", err))
		return
	}
	if req.Policy == nil {
		httpError(w, http.StatusBadRequest, "missing policy")
		return
	}
	if len(req.Weights) != req.Policy.K {
		httpError(w, http.StatusBadRequest,
			fmt.Sprintf("%d weights for a %d-object policy", len(req.Weights), req.Policy.K))
		return
	}
	if req.Policy.K > s.cfg.MaxK {
		// Eval walks a caller-supplied tree — there is no approximate
		// variant to hint at, so the body names the budget and nothing else.
		s.rejectOversize(w, &oversizeError{budget: "k", limit: s.cfg.MaxK, got: req.Policy.K,
			msg: fmt.Sprintf("%v: %d objects > max %d", errOversize, req.Policy.K, s.cfg.MaxK)}, nil)
		return
	}
	p := &core.Problem{K: req.Policy.K, Weights: req.Weights, Actions: req.Policy.Actions}
	if err := p.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	// The policy is caller-supplied JSON: a well-formed document can still
	// encode a malformed procedure (non-shrinking choices, missing states,
	// objects never treated). Tree() rejects choices that would not
	// terminate, and the certifier's structural pass rejects everything
	// else — both are 422s (the document parsed; the procedure is invalid),
	// distinct from the 400s above where the request itself is bad.
	tree, err := req.Policy.Tree()
	if err != nil {
		s.metrics.EvalMalformed.Add(1)
		httpError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	if rep := certify.TreeStructure(p, tree); !rep.OK() {
		s.metrics.EvalMalformed.Add(1)
		httpError(w, http.StatusUnprocessableEntity, rep.Err().Error())
		return
	}
	// Pricing walks one path per object and is bounded by the request
	// context: a client that disconnects stops paying for its own eval.
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.DefaultTimeout)
	defer cancel()
	cost, err := core.TreeCostCtx(ctx, p, tree)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			s.solveError(w, ctxErr)
			return
		}
		s.metrics.EvalMalformed.Add(1)
		httpError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, &EvalResponse{
		Cost:   cost,
		States: req.Policy.States(),
		Nodes:  tree.CountNodes(),
		Depth:  tree.Depth(),
	})
}

// --- health and stats ---

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.statsPayload())
}

// statsPayload is the /v1/stats and expvar body: the counter set plus live
// gauges — cache occupancy (entries and bytes), resident policies, queue
// depth and stripe workers.
func (s *Server) statsPayload() map[string]any {
	out := s.metrics.Snapshot()
	s.mu.Lock()
	out["cache_entries"] = s.cache.len()
	out["cache_bytes"] = s.cache.totalBytes
	s.mu.Unlock()
	pc, pb := s.policies.Stats()
	out["policies"] = pc
	out["policy_bytes"] = pb
	out["pending"] = s.pending.Load()
	out["stripe_workers"] = s.stripe.Workers()
	return out
}

// retryAfterSeconds estimates when shed work could be admitted again: the
// queue depth times the observed mean solve time, divided across the solver
// slots, clamped to [1, 60] — an honest Retry-After instead of a constant.
func (s *Server) retryAfterSeconds() int {
	mean := s.metrics.meanSolveSeconds()
	if mean <= 0 {
		mean = 1
	}
	est := math.Ceil(float64(s.pending.Load()) * mean / float64(s.cfg.MaxConcurrent))
	return int(min(60, max(1, est)))
}

// --- plumbing ---

type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func actionName(p *core.Problem, idx int) string {
	if idx < 0 || idx >= len(p.Actions) {
		return ""
	}
	if n := p.Actions[idx].Name; n != "" {
		return n
	}
	return fmt.Sprintf("T%d", idx+1)
}

func isTrue(v string) bool { return v == "1" || v == "true" }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the client is gone if this fails; nothing to recover
}

// appendSolveResponse appends the bytes writeJSON sends for r — json.Encoder
// with SetIndent("", "  "), trailing newline included — without reflection
// (TestSolveResponseAppendMatchesEncoder). Keys follow SolveResponse's field
// order, and the omitempty fields are left out when zero.
func appendSolveResponse(b []byte, r *SolveResponse) []byte {
	b = instio.AppendString(append(b, "{\n  \"instance_hash\": "...), r.InstanceHash)
	b = strconv.AppendInt(member(b, "k"), int64(r.K), 10)
	b = strconv.AppendInt(member(b, "actions"), int64(r.Actions), 10)
	b = instio.AppendString(member(b, "engine"), r.Engine)
	b = instio.AppendString(member(b, "solved_by"), r.SolvedBy)
	b = strconv.AppendBool(member(b, "cached"), r.Cached)
	if r.Coalesced {
		b = append(member(b, "coalesced"), "true"...)
	}
	b = instio.AppendString(member(b, "certify_mode"), r.CertifyMode)
	b = strconv.AppendBool(member(b, "adequate"), r.Adequate)
	if r.Cost != nil {
		b = strconv.AppendUint(member(b, "cost"), *r.Cost, 10)
	}
	if r.FirstAction != "" {
		b = instio.AppendString(member(b, "first_action"), r.FirstAction)
	}
	if r.Tree != "" {
		b = instio.AppendString(member(b, "tree"), r.Tree)
	}
	b = appendFloat(member(b, "elapsed_ms"), r.ElapsedMS)
	if r.Approx != "" {
		b = instio.AppendString(member(b, "approx"), r.Approx)
	}
	if r.GapMilli != nil {
		b = strconv.AppendUint(member(b, "gap_milli"), *r.GapMilli, 10)
	}
	if r.LowerBound != nil {
		b = strconv.AppendUint(member(b, "lower_bound"), *r.LowerBound, 10)
	}
	if r.ApproxPolicy != "" {
		b = instio.AppendString(member(b, "approx_policy"), r.ApproxPolicy)
	}
	if r.ApproxExact {
		b = append(member(b, "approx_exact"), "true"...)
	}
	return append(b, "\n}\n"...)
}

// member ends the previous member and starts the next one, `,\n  "name": `.
func member(b []byte, name string) []byte {
	b = append(append(b, ",\n  \""...), name...)
	return append(b, "\": "...)
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// decimal that round-trips, in exponent form below 1e-6 and from 1e21 on,
// with a one-digit negative exponent unpadded. f must be finite.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 becomes e-7
		b = b[:n-1]
	}
	return b
}

// readInstance reads and parses a /v1/solve or /v1/policy body.
func readInstance(w http.ResponseWriter, r *http.Request) (*core.Problem, error) {
	body, err := readBody(w, r)
	if err != nil {
		return nil, err
	}
	return instio.Parse(body)
}

// readBody reads a request body of at most maxBodyBytes; a longer one is an
// error that unwraps to *http.MaxBytesError. A Content-Length of at most
// bodyHint sizes the buffer in one allocation, with room to see EOF without
// growing; any other body grows the buffer as it reads.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	var buf bytes.Buffer
	if n := r.ContentLength; n > 0 && n <= bodyHint {
		buf.Grow(int(n) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		return nil, fmt.Errorf("serve: reading request body: %w", err)
	}
	return buf.Bytes(), nil
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// bodyError answers a request whose instance body instio refused: 413 when
// the body ran past maxBodyBytes, 400 when it is malformed or invalid.
func bodyError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	httpError(w, status, err.Error())
}
