// Command ttserve runs the test-and-treatment solver as a long-lived HTTP
// service (internal/serve): instances are POSTed in the instio JSON wire
// format and solved exactly in this process by the host DP, each level split
// across the stripe pool's workers when it is large enough to repay it (the
// paper's simulated machines run under ttsolve), every answer certified
// before it is cached or served, with an order-normalized LRU solution
// cache, singleflight collapsing of identical concurrent requests, admission
// control (solver semaphore, bounded queue, K/action budget), per-request
// deadlines that genuinely cancel the O(N·2^K) sweep, and graceful drain on
// SIGINT/SIGTERM. A failed exact solve falls back to approx only when the
// request enabled it (docs/RESILIENCE.md). Nothing is persisted: a crash
// loses only in-flight solves, which the clients re-ask.
//
// Usage:
//
//	ttserve [-addr :8080] [-timeout 10s] [-max-k 20] ...
//
// Endpoints:
//
//	POST /v1/solve?timeout_ms=...&tree=1&approx=off|RATIO|DEADLINE
//	POST /v1/solve/batch?timeout_ms=...&tree=1 — solve several instances together, the cache misses split across the pool (docs/SERVING.md)
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

	"repro/internal/chaos"
	"repro/internal/serve"
)

// run boots the service and blocks until a shutdown signal (or a closed
// stop channel, the test hook), then drains. When ready is non-nil it
// receives the bound address once the listener is up.
func run(args []string, stderr io.Writer, ready chan<- string, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("ttserve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	maxConcurrent := fs.Int("max-concurrent", 0, "simultaneous solver runs (0 = GOMAXPROCS)")
	maxPending := fs.Int("max-pending", 0, "queued+running solves before shedding with 503 (0 = 4x max-concurrent)")
	cacheEntries := fs.Int("cache", 0, "LRU capacity in solved instances (0 = 1024, negative disables)")
	timeout := fs.Duration("timeout", 0, "default per-request solve budget (0 = 10s)")
	maxTimeout := fs.Duration("max-timeout", 0, "ceiling on client-requested timeouts (0 = 60s)")
	maxK := fs.Int("max-k", 0, "largest universe accepted; larger instances get 422 (0 = 20)")
	maxActions := fs.Int("max-actions", 0, "most actions accepted (0 = 64)")
	stripeWorkers := fs.Int("stripe-workers", 0, "dedicated stripe-pool workers for the exact DP's level ranges and batch sweeps (0 = share the process-wide pool)")
	maxBatch := fs.Int("max-batch", 0, "most instances accepted per /v1/solve/batch request (0 = 16)")
	policyBytes := fs.Int64("policy-bytes", 0, "byte budget across published route policies (0 = 64MiB, negative unbounded)")
	routeMaxBatch := fs.Int("route-max-batch", 0, "most sessions accepted per /v1/route/batch request (0 = 4096)")
	drain := fs.Duration("drain", 15*time.Second, "graceful-shutdown drain budget")
	cacheBytes := fs.Int64("cache-bytes", 0, "LRU byte budget across cached solutions (0 = entry count only)")
	certifyMode := fs.String("certify", "", "certification every answer passes before caching/serving: fast or audit (empty = fast); a failure counts as an engine fault")
	approxDefault := fs.String("approx", "", "approx knob for requests that send none: off, a gap ratio >= 1, or a deadline like 200ms (empty = off)")
	approxMaxK := fs.Int("approx-max-k", 0, "largest universe the approx plane accepts (0 = 26, the Set-type maximum)")
	approxMaxActions := fs.Int("approx-max-actions", 0, "most actions the approx plane accepts (0 = 256)")
	approxNodes := fs.Int64("approx-nodes", 0, "branch-and-bound node budget per approx solve (0 = 1<<20, negative = greedy only)")
	chaosLevelDelay := fs.Duration("chaos-level-delay", 0, "TESTING: artificial pause at each of the K-1 progress reports of a single exact solve (batch solves never pause)")
	chaosFailEngine := fs.String("chaos-fail-engine", "", "TESTING: inject solve faults, as rung[:count] with rung exact or approx (count omitted = every attempt)")
	chaosCorruptEngine := fs.String("chaos-corrupt-engine", "", "TESTING: silently corrupt finished answers, as rung[:count] with rung exact or approx (count omitted = every attempt)")
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
	if _, err := serve.ParseCertifyMode(*certifyMode); err != nil {
		return fmt.Errorf("ttserve: -certify: %w", err)
	}

	logger := slog.New(slog.NewTextHandler(stderr, nil))
	srv := serve.New(serve.Config{
		MaxConcurrent:    *maxConcurrent,
		MaxPending:       *maxPending,
		CacheEntries:     *cacheEntries,
		CacheBytes:       *cacheBytes,
		DefaultTimeout:   *timeout,
		MaxTimeout:       *maxTimeout,
		MaxK:             *maxK,
		MaxActions:       *maxActions,
		StripeWorkers:    *stripeWorkers,
		MaxBatch:         *maxBatch,
		PolicyBytes:      *policyBytes,
		RouteMaxBatch:    *routeMaxBatch,
		Logger:           logger,
		CertifyMode:      *certifyMode,
		DefaultApprox:    *approxDefault,
		ApproxMaxK:       *approxMaxK,
		ApproxMaxActions: *approxMaxActions,
		ApproxNodes:      *approxNodes,
		EngineFault:      engineFault,
		ResultFault:      resultFault,
		LevelDelay:       *chaosLevelDelay,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("ttserve: %w", err)
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	logger.Info("ttserve listening", "addr", ln.Addr().String())
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

// parseChaosSpec splits a "rung[:count]" chaos spec (count omitted = every
// attempt). The rung must be one the server tries, so a typo cannot make a
// drill inject nothing and pass vacuously.
func parseChaosSpec(flagName, spec string) (rung string, n int64, err error) {
	rung, countStr, hasCount := strings.Cut(spec, ":")
	if rung != "exact" && rung != "approx" {
		return "", 0, fmt.Errorf("%s: unknown rung %q (want exact or approx)", flagName, rung)
	}
	n = 1<<62 - 1
	if hasCount {
		v, err := strconv.ParseInt(countStr, 10, 64)
		if err != nil || v < 0 {
			return "", 0, fmt.Errorf("bad %s count %q", flagName, countStr)
		}
		n = v
	}
	return rung, n, nil
}

// parseChaosFail turns "-chaos-fail-engine rung[:count]" into the serve
// fault hook: the named rung's first count attempts fail. Empty spec means
// no injection.
func parseChaosFail(spec string) (func(string) error, error) {
	if spec == "" {
		return nil, nil
	}
	rung, n, err := parseChaosSpec("-chaos-fail-engine", spec)
	if err != nil {
		return nil, err
	}
	return chaos.FailFirst(rung, n, errors.New("injected chaos fault")), nil
}

// parseChaosCorrupt turns "-chaos-corrupt-engine rung[:count]" into the
// serve result-corruption hook: the named rung's first count answers are
// silently wrong, exercising the certify-before-cache gate. Empty spec means
// no injection.
func parseChaosCorrupt(spec string) (func(string) bool, error) {
	if spec == "" {
		return nil, nil
	}
	rung, n, err := parseChaosSpec("-chaos-corrupt-engine", spec)
	if err != nil {
		return nil, err
	}
	return chaos.CorruptFirst(rung, n), nil
}

func main() {
	if err := run(os.Args[1:], os.Stderr, nil, nil); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
