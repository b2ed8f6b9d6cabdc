// Command perfbench is the repository's serving benchmark. It starts a real
// serve.Server (ttserve's default Config, logs discarded) in a child process
// on a loopback listener, drives it with closed-loop HTTP clients for a fixed
// window, checks every answer, and prints each end-to-end metric by name and
// unit. With --trace 1 it instead prints the per-layer ledger: the same
// requests replayed through the layers' public functions, with each layer's
// self time reconciled against the traced end-to-end time.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload solve-cold --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh steady --workload solve-cold,solve-hot --runs 10
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Any wrong answer makes the
// command exit non-zero. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Seeds: defaultSeed for everyday runs, holdoutSeed kept back to confirm a
// claimed gain on inputs it was not tuned on.
const (
	defaultSeed = 1
	holdoutSeed = 7919
)

// setupRepeats is how many times an untraced run sets up a fresh server.
// The last one serves the whole window; the others stop once set up, so
// setup_s is a median that one slow process start does not decide.
const setupRepeats = 5

// tracedShare is the part of a traced run's window given to the traced
// phase; the rest is an untraced phase that the tracing overhead is measured
// against.
const tracedShare = 0.6

func main() {
	if os.Getenv(serveEnv) == "1" {
		os.Exit(serveMain())
	}
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steadyMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

type runConfig struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	setups   int    // set-ups an untraced run times
	spans    string // where a traced run writes its spans
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", defaultSeed, fmt.Sprintf("input seed (hold-out seed for claims: %d)", holdoutSeed))
	seconds := fs.Int("seconds", 30, "length of the measured window")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg := runConfig{workload: *name, seed: *seed, window: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, setups: setupRepeats, spans: filepath.Join(".bench_build", "spans-"+*name+".json")}
	res, wrong, err := run(cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, line := range wrong {
		fmt.Fprintln(stderr, "wrong answer:", line)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// run performs one benchmark run and returns its result and any wrong
// answers.
func run(cfg runConfig, out io.Writer) (*result, []string, error) {
	wl, err := newWorkload(cfg.workload, cfg.seed, cfg.window)
	if err != nil {
		return nil, nil, err
	}
	hc := newHTTPClient(wl.clients())
	defer hc.CloseIdleConnections()
	steal := startSteal()
	if cfg.trace {
		return runTraced(cfg, wl, hc, out, steal)
	}

	shape := refShapes[cfg.workload]
	ref := &refReq{path: shape.path(), want: []byte(strconv.FormatUint(uint64(refSweep(shape.bits, 1)), 10))}
	srv, setups, err := setUp(wl, hc, cfg.setups)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	cpu0, err := srv.cpu()
	var ph phase
	var cpu1 time.Duration
	if err == nil {
		ws := newWorkers(hc, srv.base, wl.clients())
		for _, w := range ws {
			w.ref = ref
		}
		ph = runPhase(wl, ws, cfg.window)
		cpu1, err = srv.cpu()
	}
	var counters map[string]float64
	if err == nil {
		counters, err = srv.stats(hc)
	}
	peak, stopErr := srv.stop()
	if err == nil {
		err = stopErr
	}
	if err != nil {
		return nil, nil, err
	}
	if ph.firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first request error:", ph.firstErr)
	}
	wrong := wl.check()
	res := newResult([]phase{ph}, wrong)
	printJSONLine(out, "# meta ", newMeta(cfg, wl.clients(), res.Attempted, steal.share()))
	sum := summarize([]phase{ph})
	fmt.Fprintf(out, "%-11s %d clients, closed loop, %d requests in %.2f s\n",
		cfg.workload, wl.clients(), sum.requests, ph.elapsed.Seconds())
	printByPath(out, cfg.workload, ph)
	fmt.Fprintf(out, "%-11s server: %.0f solves, %.0f cache hits, %.0f cache entries resident\n",
		cfg.workload, counters["solves"], counters["cache_hits"], counters["cache_entries"])

	// The figures as measured, printed for reading. On a shared host the
	// wall-clock ones follow the other tenants' load, so the reported latency
	// and set-up time are scaled to the reference host by the reference
	// requests' latency (see README.md).
	p10 := mixP10(ph)
	refP10 := quantile(sortedDurations(ph.refLat), 0.1)
	slow := refP10 / shape.nominalMs // this host's slowdown against the reference host
	show := func(name, unit string, v float64, note string) {
		fmt.Fprintf(out, "%-11s %-15s %14.4f %-5s %s\n", cfg.workload, name, v, unit, note)
	}
	show("wall_p10_ms", "ms", p10, "wall clock")
	show("latency_p50_ms", "ms", sum.p50, "wall clock")
	show("latency_p99_ms", "ms", sum.p99, fmt.Sprintf("wall clock, over %d requests", sum.requests))
	show("ops_per_s", "1/s", sum.opsPerS, "wall clock")
	show("setup_wall_s", "s", median(setups), fmt.Sprintf("wall clock, median of %.4f", setups))
	show("ref_p10_ms", "ms", refP10, fmt.Sprintf("wall clock, over %d reference requests: the host runs %.3fx the reference host's time", len(ph.refLat), slow))
	show("cpu_ms_per_op", "ms", float64(cpu1-cpu0)/1e6/float64(ph.ops()), "server CPU time")
	show("error_share", "ratio", ratio(float64(res.Failed), float64(res.Attempted)),
		fmt.Sprintf("%d of %d attempted", res.Failed, res.Attempted))
	add := func(name, unit string, v float64) {
		res.Metrics[name] = metric{finite(v), unit}
		fmt.Fprintf(out, "%-11s %-15s %14.4f %-5s reported\n", cfg.workload, name, v, unit)
	}
	add("latency_p10_ms", "ms", p10/slow)
	add("setup_s", "s", median(setups)/slow)
	add("peak_rss_mb", "MB", peak)
	return res, wrong, nil
}

// setUp sets up a fresh server n times and returns the last one, still
// running, with every set-up's wall-clock time in seconds. The others stop
// as soon as they are set up.
func setUp(wl workload, hc *http.Client, n int) (*serverProc, []float64, error) {
	var times []float64
	for {
		srv, t, err := bringUp(wl, hc)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, t)
		if len(times) >= n {
			return srv, times, nil
		}
		_, err = srv.stop()
		hc.CloseIdleConnections()
		if err != nil {
			return nil, nil, err
		}
	}
}

// printByPath prints each request path's p10, median and p99 latency when a
// workload mixes request kinds, so a mix whose kinds take different times
// shows.
func printByPath(out io.Writer, workload string, ph phase) {
	byPath := map[string][]time.Duration{}
	for _, s := range ph.samples {
		byPath[s.path] = append(byPath[s.path], s.lat)
	}
	if len(byPath) < 2 {
		return
	}
	for _, path := range sortedKeys(byPath) {
		lat := byPath[path]
		sortDurations(lat)
		fmt.Fprintf(out, "%-11s %-26s p10 %.4f ms, p50 %.4f ms, p99 %.4f ms over %d requests\n",
			workload, path, quantile(lat, 0.1), quantile(lat, 0.5), quantile(lat, 0.99), len(lat))
	}
}

// runTraced is a traced run on one server: an untraced phase for the
// baseline and the server's counter deltas, then the traced phase, then the
// layer probe.
func runTraced(cfg runConfig, wl workload, hc *http.Client, out io.Writer, steal stealMeter) (*result, []string, error) {
	srv, _, err := bringUp(wl, hc)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	defer func() {
		if srv != nil {
			_, _ = srv.stop()
		}
	}()
	ws := newWorkers(hc, srv.base, wl.clients())
	before, err := srv.stats(hc)
	if err != nil {
		return nil, nil, err
	}
	untracedWindow := time.Duration(float64(cfg.window) * (1 - tracedShare))
	untraced := runPhase(wl, ws, untracedWindow)
	after, err := srv.stats(hc)
	if err != nil {
		return nil, nil, err
	}
	delta := make(map[string]float64, len(after))
	for k, v := range after {
		delta[k] = v - before[k]
	}
	tr := newTracer()
	if err := wl.prepareTrace(tr.log()); err != nil {
		return nil, nil, err
	}
	for _, w := range ws {
		w.tr = tr.log()
	}
	traced := runPhase(wl, ws, cfg.window-untracedWindow)
	speedup, err := probe(tr.log(), cfg.seed)
	if err != nil {
		return nil, nil, fmt.Errorf("layer probe: %w", err)
	}
	_, err = srv.stop()
	srv = nil
	if err != nil {
		return nil, nil, err
	}
	for _, ph := range []phase{untraced, traced} {
		if ph.firstErr != nil {
			fmt.Fprintln(os.Stderr, "perfbench: first request error:", ph.firstErr)
		}
	}

	wrong := wl.check()
	res := newResult([]phase{untraced, traced}, wrong)
	m := newMeta(cfg, wl.clients(), res.Attempted, steal.share())
	printJSONLine(out, "# meta ", m)
	p50 := summarize([]phase{untraced}).p50
	a := analyze(tr.spans())
	a.printLedger(out, cfg.workload, p50)
	vals := a.layerValues(delta, speedup, p50)
	for _, l := range perLayer {
		v := vals[l.name]
		res.Metrics[l.name] = metric{finite(v), l.unit}
		fmt.Fprintf(out, "%-11s %-26s %14.4f %s\n", cfg.workload, l.name, v, l.unit)
	}
	if err := writeSpans(cfg.spans, m, tr.spans()); err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(out, "%-11s spans written to %s\n", cfg.workload, cfg.spans)
	return res, wrong, nil
}

// bringUp starts a fresh server and runs the workload's set-up on it,
// returning the set-up time in seconds.
func bringUp(wl workload, hc *http.Client) (*serverProc, float64, error) {
	start := time.Now()
	srv, err := startServer()
	if err != nil {
		return nil, 0, err
	}
	if err := wl.setup(newWorkers(hc, srv.base, wl.clients())); err != nil {
		_, _ = srv.stop()
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return srv, time.Since(start).Seconds(), nil
}

func newResult(phases []phase, wrong []string) *result {
	res := &result{Correct: len(wrong) == 0, Failed: int64(len(wrong)), Metrics: map[string]metric{}}
	for _, ph := range phases {
		res.Attempted += ph.attempted
		res.Failed += ph.failed
	}
	return res
}

func newWorkers(hc *http.Client, base string, n int) []*worker {
	ws := make([]*worker, n)
	for i := range ws {
		ws[i] = &worker{id: i, hc: hc, base: base}
	}
	return ws
}

func printJSONLine(out io.Writer, prefix string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(out, prefix, err)
		return
	}
	fmt.Fprintln(out, prefix+string(b))
}

// meta is the host and run metadata every result records.
type meta struct {
	CPU        string  `json:"cpu"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Clients    int     `json:"clients"`
	Requests   int64   `json:"requests"`
	StealShare float64 `json:"steal_share"` // CPU steal over the run, from /proc/stat
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
