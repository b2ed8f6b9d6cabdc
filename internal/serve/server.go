// Package serve implements the ttserve HTTP solver service: a long-running
// request/response front end over the repository's TT solver engines. The
// paper's own applications — medical diagnosis, logistical breakdown
// correction — are serving workloads (the same instance is solved once and
// queried many times, under response-time expectations), and this package
// supplies the production shape for them:
//
//   - POST /v1/solve  — solve an instio-format instance with a selectable
//     engine (seq, parallel, lockstep, goroutine, ccc, bvm), per-request
//     deadline, and optional procedure-tree rendering;
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
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/approx"
	"repro/internal/bvmtt"
	"repro/internal/ccc"
	"repro/internal/certify"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/instio"
	"repro/internal/parttsolve"
	"repro/internal/policy"
	"repro/internal/stripe"
)

// maxBodyBytes bounds request bodies; the largest admissible instance is a
// few tens of kilobytes of JSON.
const maxBodyBytes = 1 << 20

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
	Workers        int           // Gosper ranges per level for engine=parallel solves and batch groups alike (default GOMAXPROCS)
	StripeWorkers  int           // dedicated stripe-pool workers for striped/batched sweeps (default 0: share the process-wide pool)
	DefaultEngine  string        // engine when the request names none (default "seq")
	CertifyMode    string        // answer certification: "off", "fast", "audit" (default "fast"); per-request certify= overrides
	Logger         *slog.Logger  // structured request log (default slog.Default())

	// Bounded-suboptimality plane (approx.go, docs/RESILIENCE.md).
	DefaultApprox    string // approx knob when the request sends none: "off", a ratio ≥ 1, or a duration (default "off")
	ApproxMaxK       int    // approx admission: largest universe accepted (default core.MaxK — every K the Set type expresses)
	ApproxMaxActions int    // approx admission: most actions accepted (default 256)
	ApproxNodes      int64  // branch-and-bound node budget per solve (default 1<<20; negative disables B&B, greedy only)

	// Self-healing knobs (docs/RESILIENCE.md).
	BreakerThreshold int           // consecutive failures opening an engine's breaker (default 3; negative disables breakers)
	BreakerCooldown  time.Duration // open -> half-open probe delay (default 5s)
	Retries          int           // extra attempts per engine on non-context failure (default 1; negative disables)
	DisableFallback  bool          // fail instead of degrading to the next engine in the chain
	CheckpointDir    string        // durable level-frontier snapshots land here ("" disables)
	CheckpointFS     checkpoint.FS // checkpoint filesystem (nil: real disk; tests inject chaos.FaultFS)
	RecoverTimeout   time.Duration // budget for the startup checkpoint-recovery scan (default 0: caller's context only)

	// Distributed solve plane (docs/CLUSTER.md): the "cluster" engine dials
	// these ttworker addresses per solve. Empty leaves the engine
	// unconfigured — requests for it fall straight through its fallback
	// chain to the in-process engines.
	ClusterWorkers     []string
	ClusterDeadline    time.Duration // per-assignment plane deadline (default 30s)
	ClusterQuorum      int           // minimum live workers to continue (default 1)
	ClusterAudit       float64       // fraction of plane cells spot-audited (default 0.125; >=1 audits all)
	ClusterDialTimeout time.Duration // per-worker dial budget (default 2s)

	// Chaos hooks, wired to ttserve's -chaos-* flags; zero in production.
	EngineFault func(engine string) error // called before each solve attempt; error or panic = engine fault
	ResultFault func(engine string) bool  // true = silently corrupt this attempt's answer before certification
	LevelDelay  time.Duration             // artificial pause at every level barrier
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.MaxPending <= 0 {
		c.MaxPending = 4 * c.MaxConcurrent
	}
	// Resolved here, not in the engines: core.SolveBatchCtx reads an unset
	// width as one range, so an unresolved 0 would run batches on one core
	// while engine=parallel used all of them.
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
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
	if c.DefaultEngine == "" {
		c.DefaultEngine = "seq"
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
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.Retries == 0 {
		c.Retries = 1
	}
	if c.Retries < 0 {
		c.Retries = 0
	}
	if c.ClusterDeadline <= 0 {
		c.ClusterDeadline = 30 * time.Second
	}
	if c.ClusterQuorum <= 0 {
		c.ClusterQuorum = 1
	}
	if c.ClusterAudit == 0 {
		c.ClusterAudit = 0.125
	}
	if c.ClusterDialTimeout <= 0 {
		c.ClusterDialTimeout = 2 * time.Second
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
	certifyMode   certify.Mode // parsed Config.CertifyMode, the per-server default
	defaultApprox approx.Spec  // parsed Config.DefaultApprox, the per-server default

	sem      chan struct{} // solver semaphore, capacity MaxConcurrent
	pending  atomic.Int64  // queued+running solves, bounded by MaxPending
	reqID    atomic.Int64
	draining atomic.Bool

	policies *policy.Store   // compiled route-plane artifacts (route.go)
	keyring  *policy.Keyring // signs and verifies route session cursors
	routeSID atomic.Uint32   // session ids for new route sessions

	stripe *stripe.Pool // worker pool behind striped Exec, pooled parallel DP, and batch sweeps

	baseCtx    context.Context // parent of every solve context; Close cancels it
	baseCancel context.CancelFunc

	mu      sync.Mutex
	cache   *lruCache
	flights map[string]*flightCall

	brMu     sync.Mutex
	breakers map[string]*breaker
}

// New builds a Server from cfg (zero value is a sensible default).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	mode, err := certify.ParseMode(cfg.CertifyMode)
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
		breakers:      make(map[string]*breaker),
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
		s.log.Info("request",
			"id", id,
			"method", r.Method,
			"path", r.URL.Path,
			"status", rec.status,
			"dur_ms", float64(time.Since(start).Microseconds())/1000)
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
	Engine       string  `json:"engine"`              // engine this request asked for
	SolvedBy     string  `json:"solved_by"`           // engine that produced the solution
	Cached       bool    `json:"cached"`              // served from the LRU without solving
	Coalesced    bool    `json:"coalesced,omitempty"` // shared a concurrent identical solve
	CertifyMode  string  `json:"certify_mode"`        // certification the answer passed: off, fast, audit
	Adequate     bool    `json:"adequate"`
	Cost         *uint64 `json:"cost,omitempty"` // C(U); absent when inadequate
	FirstAction  string  `json:"first_action,omitempty"`
	Tree         string  `json:"tree,omitempty"`
	Greedy       *uint64 `json:"greedy,omitempty"`
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

var engineKinds = map[string]parttsolve.EngineKind{
	"lockstep":  parttsolve.Lockstep,
	"goroutine": parttsolve.Goroutine,
	"ccc":       parttsolve.CCC,
}

func validEngine(e string) bool {
	switch e {
	case "seq", "parallel", "lockstep", "goroutine", "ccc", "bvm", "cluster":
		return true
	}
	return false
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

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	s.metrics.Requests.Add(1)
	if s.draining.Load() {
		// A draining process sheds new solves immediately: the client should
		// retry against a replica, not wait out this process's shutdown.
		s.rejectShed(w, true)
		return
	}
	q := r.URL.Query()
	engine := q.Get("engine")
	if engine == "" {
		engine = s.cfg.DefaultEngine
	}
	if !validEngine(engine) {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("unknown engine %q", engine))
		return
	}
	mode := s.certifyMode
	if cm := q.Get("certify"); cm != "" {
		var err error
		if mode, err = certify.ParseMode(cm); err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
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
	ap := s.defaultApprox
	if q.Has("approx") {
		var err error
		if ap, err = approx.ParseSpec(q.Get("approx")); err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	p, err := instio.Read(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	solveEngine := engine // the engine actually dispatched; resp.Engine echoes the request
	if oerr := s.admit(p, engine); oerr != nil {
		// Past the exact-DP budget. With approx enabled the instance routes
		// to the anytime engine (its own, much looser, caps permitting)
		// instead of failing; with approx off the 422 names the exceeded
		// budget and the smallest setting that would have been accepted.
		if !ap.Enabled || s.admitApprox(p) != nil {
			s.rejectOversize(w, oerr, p)
			return
		}
		solveEngine = "approx"
	}
	canon := Canonicalize(p)
	hash, err := Hash(canon)
	if err != nil {
		s.metrics.Failures.Add(1)
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	start := time.Now()
	ent, cached, coalesced, err := s.solveShared(ctx, hash, canon, solveEngine, mode, ap, timeout)
	if err != nil {
		s.solveError(w, err)
		return
	}
	resp := &SolveResponse{
		InstanceHash: ent.hash,
		K:            canon.K,
		Actions:      len(canon.Actions),
		Engine:       engine,
		SolvedBy:     ent.engine,
		Cached:       cached,
		Coalesced:    coalesced,
		CertifyMode:  mode.String(),
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
	if isTrue(q.Get("greedy")) {
		if g, err := core.GreedyCost(canon); err == nil {
			resp.Greedy = &g
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// admit enforces the size budget: the global K/action caps plus the
// engine-specific machine bounds, checked before any 2^K allocation so an
// oversized instance costs the server nothing but the parse. The returned
// rejection names the budget it enforces (for the structured 422 body) and
// unwraps to errOversize.
func (s *Server) admit(p *core.Problem, engine string) *oversizeError {
	if p.K > s.cfg.MaxK {
		return &oversizeError{budget: "k", limit: s.cfg.MaxK, got: p.K,
			msg: fmt.Sprintf("%v: %d objects > max %d", errOversize, p.K, s.cfg.MaxK)}
	}
	if len(p.Actions) > s.cfg.MaxActions {
		return &oversizeError{budget: "actions", limit: s.cfg.MaxActions, got: len(p.Actions),
			msg: fmt.Sprintf("%v: %d actions > max %d", errOversize, len(p.Actions), s.cfg.MaxActions)}
	}
	dim := p.K + parttsolve.PaddedLogN(len(p.Actions))
	machine := func(got int, msg string) *oversizeError {
		return &oversizeError{budget: "machine-dim", limit: core.MaxK, got: got, msg: msg}
	}
	switch engine {
	case "lockstep", "goroutine":
		if dim > core.MaxK {
			return machine(dim, fmt.Sprintf("%v: engine %s needs 2^%d simulated PEs", errOversize, engine, dim))
		}
	case "ccc":
		top, err := ccc.ForPEs(1 << uint(dim))
		if err != nil {
			return machine(dim, fmt.Sprintf("%v: engine ccc: %v", errOversize, err))
		}
		if top.AddrBits > core.MaxK {
			return machine(top.AddrBits, fmt.Sprintf("%v: engine ccc needs 2^%d simulated PEs", errOversize, top.AddrBits))
		}
	case "bvm":
		if dim > bvmtt.MaxDim {
			e := machine(dim, fmt.Sprintf("%v: engine bvm needs 2^%d PEs, bit-level cap is 2^%d", errOversize, dim, bvmtt.MaxDim))
			e.limit = bvmtt.MaxDim
			return e
		}
		if width := bvmtt.SuggestWidth(p); width > 32 {
			e := machine(width, fmt.Sprintf("%v: engine bvm needs %d-bit words (max 32)", errOversize, width))
			e.limit = 32
			return e
		}
	}
	return nil
}

// solveShared resolves one request to a cache entry: LRU hit, attach to an
// identical in-flight solve, or start the solve. Cache and singleflight are
// keyed by hash *and* certify mode, so an answer solved without
// certification is never handed to a request that asked for it (and an
// audit-mode answer is not diluted to an off-mode one). The solve runs under
// its own context (derived from the server, bounded by timeout), so it
// survives any single client's disconnect while other waiters remain — and
// stops as soon as the last waiter is gone.
func (s *Server) solveShared(ctx context.Context, hash string, canon *core.Problem, engine string, mode certify.Mode, ap approx.Spec, timeout time.Duration) (ent *cacheEntry, cached, coalesced bool, err error) {
	key := cacheKey(hash, mode, ap)
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
		solveCtx, cancel := context.WithTimeout(s.baseCtx, timeout)
		c := &flightCall{done: make(chan struct{}), cancel: cancel, waiters: 1}
		s.flights[key] = c
		s.mu.Unlock()
		go s.runSolve(solveCtx, hash, key, c, canon, engine, mode, ap)
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
// itself goes through the resilient path: fallback chain, retries, circuit
// breakers, and durable checkpointing (resilience.go).
func (s *Server) runSolve(ctx context.Context, hash, key string, c *flightCall, canon *core.Problem, engine string, mode certify.Mode, ap approx.Spec) {
	defer c.cancel()
	// A panicking solve must still publish to its waiters — as a failure —
	// or they block on c.done forever. Successful answers are published in
	// the straight-line path below, after certification, so this handler
	// never inserts into the cache.
	defer func() {
		if r := recover(); r != nil {
			s.mu.Lock()
			delete(s.flights, key)
			c.entry, c.err = nil, fmt.Errorf("serve: %s engine panicked: %v", engine, r)
			s.mu.Unlock()
			close(c.done)
		}
	}()
	var ent *cacheEntry
	var err error
	func() {
		if s.pending.Add(1) > int64(s.cfg.MaxPending) {
			s.pending.Add(-1)
			err = errBusy
			return
		}
		defer s.pending.Add(-1)
		select {
		case s.sem <- struct{}{}:
		case <-ctx.Done():
			err = ctx.Err()
			return
		}
		defer func() { <-s.sem }()
		ent, err = s.solveResilient(ctx, hash, canon, engine, mode, ap)
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
// gauges — cache occupancy (entries and bytes), queue depth, and the state
// of every engine's circuit breaker.
func (s *Server) statsPayload() map[string]any {
	out := s.metrics.Snapshot()
	s.mu.Lock()
	out["cache_entries"] = s.cache.len()
	out["cache_bytes"] = s.cache.totalBytes
	s.mu.Unlock()
	pc, pb := s.policies.Stats()
	out["policies"] = pc
	out["policy_bytes"] = pb
	breakers := make(map[string]any)
	s.brMu.Lock()
	for name, b := range s.breakers {
		breakers[name] = b.snapshot()
	}
	s.brMu.Unlock()
	out["breakers"] = breakers
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

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
