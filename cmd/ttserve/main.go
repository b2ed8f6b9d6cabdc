// Command ttserve runs the test-and-treatment solver as a long-lived HTTP
// service (internal/serve): instances are POSTed in the instio JSON wire
// format and solved by a selectable engine, with an order-normalized LRU
// solution cache, singleflight collapsing of identical concurrent requests,
// admission control (solver semaphore, bounded queue, K/action budget),
// per-request deadlines that genuinely cancel the O(N·2^K) sweep, and
// graceful drain on SIGINT/SIGTERM. Solves self-heal (retries, per-engine
// circuit breakers, fallback chains) and, with -checkpoint-dir, write durable
// mid-sweep checkpoints that a restarted process finishes from disk before
// serving (docs/RESILIENCE.md).
//
// Usage:
//
//	ttserve [-addr :8080] [-engine seq] [-timeout 10s] [-checkpoint-dir /var/lib/ttserve] [-cluster host:port,...] ...
//
// Endpoints:
//
//	POST /v1/solve?engine=seq|parallel|lockstep|goroutine|ccc|bvm|cluster&certify=off|fast|audit&timeout_ms=...&tree=1&greedy=1&approx=off|RATIO|DEADLINE
//	POST /v1/solve/batch?certify=...&timeout_ms=...&tree=1 — solve related instances together, amortizing shared-lattice enumeration (docs/SERVING.md)
//	POST /v1/eval                     — price a stored policy under a weight vector
//	POST /v1/policy                   — solve, certify, and publish a compiled route policy
//	GET  /v1/policies                 — list resident policy versions
//	POST /v1/route, /v1/route/batch   — stateless per-session policy traversal via signed cursors
//	GET  /healthz                     — liveness (503 while draining)
//	GET  /v1/stats                    — per-server counters and latency histograms
//	GET  /debug/vars, /debug/pprof/*  — expvar and profiling
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/bvm"
	"repro/internal/bvmtt"
	"repro/internal/chaos"
	"repro/internal/serve"
)

// run boots the service and blocks until a shutdown signal (or a closed
// stop channel, the test hook), then drains. When ready is non-nil it
// receives the bound address once the listener is up.
func run(args []string, stderr io.Writer, ready chan<- string, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("ttserve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	engine := fs.String("engine", "seq", "default solver engine: seq, parallel, lockstep, goroutine, ccc, bvm, or cluster")
	maxConcurrent := fs.Int("max-concurrent", 0, "simultaneous solver runs (0 = GOMAXPROCS)")
	maxPending := fs.Int("max-pending", 0, "queued+running solves before shedding with 503 (0 = 4x max-concurrent)")
	cacheEntries := fs.Int("cache", 0, "LRU capacity in solved instances (0 = 1024, negative disables)")
	timeout := fs.Duration("timeout", 0, "default per-request solve budget (0 = 10s)")
	maxTimeout := fs.Duration("max-timeout", 0, "ceiling on client-requested timeouts (0 = 60s)")
	maxK := fs.Int("max-k", 0, "largest universe accepted; larger instances get 422 (0 = 20)")
	maxActions := fs.Int("max-actions", 0, "most actions accepted (0 = 64)")
	workers := fs.Int("workers", 0, "Gosper ranges per level for engine=parallel solves and batch groups (0 = GOMAXPROCS)")
	stripeWorkers := fs.Int("stripe-workers", 0, "dedicated stripe-pool workers for striped/batched sweeps (0 = share the process-wide pool)")
	maxBatch := fs.Int("max-batch", 0, "most instances accepted per /v1/solve/batch request (0 = 16)")
	policyBytes := fs.Int64("policy-bytes", 0, "byte budget across published route policies (0 = 64MiB, negative unbounded)")
	routeMaxBatch := fs.Int("route-max-batch", 0, "most sessions accepted per /v1/route/batch request (0 = 4096)")
	drain := fs.Duration("drain", 15*time.Second, "graceful-shutdown drain budget")
	cacheBytes := fs.Int64("cache-bytes", 0, "LRU byte budget across cached solutions (0 = entry count only)")
	checkpointDir := fs.String("checkpoint-dir", "", "directory for durable mid-solve checkpoints; crashes resume from here (empty disables)")
	recoverTimeout := fs.Duration("recover-timeout", 0, "budget for the startup checkpoint-recovery scan and resumes (0 = drain budget)")
	clusterWorkers := fs.String("cluster", "", "comma-separated ttworker addresses enabling the cluster engine (host:port,...)")
	clusterDeadline := fs.Duration("cluster-deadline", 0, "plane deadline before an assigned worker counts as a straggler (0 = 30s)")
	clusterQuorum := fs.Int("cluster-quorum", 0, "minimum live workers for a distributed solve to keep going (0 = 1)")
	clusterAudit := fs.Float64("cluster-audit", 0, "fraction of each received plane's cells the coordinator recomputes (0 = 0.125)")
	clusterDialTimeout := fs.Duration("cluster-dial-timeout", 0, "per-worker dial budget when a solve assembles its fleet (0 = 2s)")
	breakerThreshold := fs.Int("breaker-threshold", 0, "consecutive failures opening an engine's circuit breaker (0 = 3, negative disables)")
	breakerCooldown := fs.Duration("breaker-cooldown", 0, "open breaker's half-open probe delay (0 = 5s)")
	retries := fs.Int("retries", 0, "extra attempts per engine before falling back (0 = 1, negative disables)")
	noFallback := fs.Bool("no-fallback", false, "fail requests instead of degrading to the next engine in the chain")
	certifyMode := fs.String("certify", "", "answer certification before caching/serving: off, fast, or audit (empty = fast); a failure counts as an engine fault")
	approxDefault := fs.String("approx", "", "approx knob for requests that send none: off, a gap ratio >= 1, or a deadline like 200ms (empty = off)")
	approxMaxK := fs.Int("approx-max-k", 0, "largest universe the approx plane accepts (0 = 26, the Set-type maximum)")
	approxMaxActions := fs.Int("approx-max-actions", 0, "most actions the approx plane accepts (0 = 256)")
	approxNodes := fs.Int64("approx-nodes", 0, "branch-and-bound node budget per approx solve (0 = 1<<20, negative = greedy only)")
	chaosLevelDelay := fs.Duration("chaos-level-delay", 0, "TESTING: artificial pause at every DP level barrier")
	chaosFailEngine := fs.String("chaos-fail-engine", "", "TESTING: inject solve faults, as engine[:count] (count omitted = every attempt)")
	chaosCorruptEngine := fs.String("chaos-corrupt-engine", "", "TESTING: silently corrupt finished answers, as engine[:count] (count omitted = every attempt)")
	chaosBVMFault := fs.String("chaos-bvm-fault", "", "TESTING: inject a hardware fault kernel into every BVM machine: stuck-bit[:pe], stuck-e[:pe], or broken-lateral[:pe]")
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return err
	}
	engineFault, err := parseChaosFail(*chaosFailEngine)
	if err != nil {
		return fmt.Errorf("ttserve: %w", err)
	}
	resultFault, err := parseChaosCorrupt(*chaosCorruptEngine)
	if err != nil {
		return fmt.Errorf("ttserve: %w", err)
	}
	if *chaosBVMFault != "" {
		hook, err := parseBVMFault(*chaosBVMFault)
		if err != nil {
			return fmt.Errorf("ttserve: %w", err)
		}
		restore := bvmtt.SetMachineHook(hook)
		defer restore()
	}

	fleet := splitWorkers(*clusterWorkers)
	if *engine == "cluster" && len(fleet) == 0 {
		return errors.New("ttserve: -engine cluster needs a worker fleet (-cluster host:port,...)")
	}
	// The recovery budget defaults to the drain budget: both bound "how long
	// may this process do something other than serve".
	if *recoverTimeout == 0 {
		*recoverTimeout = *drain
	}

	logger := slog.New(slog.NewTextHandler(stderr, nil))
	srv := serve.New(serve.Config{
		MaxConcurrent:      *maxConcurrent,
		MaxPending:         *maxPending,
		CacheEntries:       *cacheEntries,
		CacheBytes:         *cacheBytes,
		DefaultTimeout:     *timeout,
		MaxTimeout:         *maxTimeout,
		MaxK:               *maxK,
		MaxActions:         *maxActions,
		Workers:            *workers,
		StripeWorkers:      *stripeWorkers,
		MaxBatch:           *maxBatch,
		PolicyBytes:        *policyBytes,
		RouteMaxBatch:      *routeMaxBatch,
		DefaultEngine:      *engine,
		Logger:             logger,
		BreakerThreshold:   *breakerThreshold,
		BreakerCooldown:    *breakerCooldown,
		Retries:            *retries,
		DisableFallback:    *noFallback,
		CheckpointDir:      *checkpointDir,
		RecoverTimeout:     *recoverTimeout,
		ClusterWorkers:     fleet,
		ClusterDeadline:    *clusterDeadline,
		ClusterQuorum:      *clusterQuorum,
		ClusterAudit:       *clusterAudit,
		ClusterDialTimeout: *clusterDialTimeout,
		CertifyMode:        *certifyMode,
		DefaultApprox:      *approxDefault,
		ApproxMaxK:         *approxMaxK,
		ApproxMaxActions:   *approxMaxActions,
		ApproxNodes:        *approxNodes,
		EngineFault:        engineFault,
		ResultFault:        resultFault,
		LevelDelay:         *chaosLevelDelay,
	})

	// Before accepting traffic, finish any solve a previous process died in
	// the middle of: their durable level frontiers are on disk, and resuming
	// them now means the requests that triggered them hit the cache on retry.
	if *checkpointDir != "" {
		// RecoverTimeout bounds the scan and resumes inside the server; on
		// expiry recovery stops gracefully and the leftovers stay on disk.
		resumed, discarded, err := srv.RecoverCheckpoints(context.Background())
		if err != nil {
			return fmt.Errorf("ttserve: recovering checkpoints: %w", err)
		}
		if resumed > 0 || discarded > 0 {
			logger.Info("checkpoint recovery", "resumed", resumed, "discarded", discarded)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("ttserve: %w", err)
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	logger.Info("ttserve listening", "addr", ln.Addr().String(), "engine", *engine)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	select {
	case err := <-serveErr:
		return fmt.Errorf("ttserve: %w", err)
	case s := <-sig:
		logger.Info("shutting down", "signal", s.String())
	case <-stop:
		logger.Info("shutting down", "signal", "stop")
	}

	// Drain: stop routing (healthz 503), finish accepted requests, then
	// cancel whatever is still running past the budget.
	srv.SetDraining(true)
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	err = hs.Shutdown(ctx)
	srv.Close()
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("ttserve: drain: %w", err)
	}
	logger.Info("drained cleanly")
	return nil
}

// splitWorkers parses the -cluster flag: comma-separated worker addresses,
// whitespace tolerated, empties dropped.
func splitWorkers(spec string) []string {
	var out []string
	for _, a := range strings.Split(spec, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// parseChaosSpec splits an "engine[:count]" chaos spec (count omitted =
// every attempt).
func parseChaosSpec(flagName, spec string) (engine string, n int64, err error) {
	engine, countStr, hasCount := strings.Cut(spec, ":")
	n = 1<<62 - 1
	if hasCount {
		v, err := strconv.ParseInt(countStr, 10, 64)
		if err != nil || v < 0 {
			return "", 0, fmt.Errorf("bad %s count %q", flagName, countStr)
		}
		n = v
	}
	return engine, n, nil
}

// parseChaosFail turns "-chaos-fail-engine engine[:count]" into the serve
// fault hook: the named engine's first count attempts fail. Empty spec means
// no injection.
func parseChaosFail(spec string) (func(string) error, error) {
	if spec == "" {
		return nil, nil
	}
	engine, n, err := parseChaosSpec("-chaos-fail-engine", spec)
	if err != nil {
		return nil, err
	}
	return chaos.FailFirst(engine, n, errors.New("injected chaos fault")), nil
}

// parseChaosCorrupt turns "-chaos-corrupt-engine engine[:count]" into the
// serve result-corruption hook: the named engine's first count answers are
// silently wrong, exercising the certify-before-cache gate. Empty spec means
// no injection.
func parseChaosCorrupt(spec string) (func(string) bool, error) {
	if spec == "" {
		return nil, nil
	}
	engine, n, err := parseChaosSpec("-chaos-corrupt-engine", spec)
	if err != nil {
		return nil, err
	}
	return chaos.CorruptFirst(engine, n), nil
}

// parseBVMFault turns "-chaos-bvm-fault kind[:pe]" into a machine hook that
// injects one of internal/bvm's hardware fault kernels into every BVM the
// server builds — the live-fire test of the ABFT layer: with -certify=fast
// the faulted machine must repair or refuse, never answer wrong.
func parseBVMFault(spec string) (func(*bvm.Machine), error) {
	kind, peStr, hasPE := strings.Cut(spec, ":")
	pe := 0
	if hasPE {
		v, err := strconv.Atoi(peStr)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("bad -chaos-bvm-fault PE %q", peStr)
		}
		pe = v
	}
	switch kind {
	case "stuck-bit":
		return func(m *bvm.Machine) { m.InjectStuckBit(bvm.R(0), pe%m.N(), true) }, nil
	case "stuck-e":
		return func(m *bvm.Machine) { m.InjectStuckBit(bvm.E, pe%m.N(), false) }, nil
	case "broken-lateral":
		return func(m *bvm.Machine) { m.InjectBrokenLateral(pe % m.N()) }, nil
	default:
		return nil, fmt.Errorf("unknown -chaos-bvm-fault kind %q (want stuck-bit, stuck-e, or broken-lateral)", kind)
	}
}

func main() {
	if err := run(os.Args[1:], os.Stderr, nil, nil); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
