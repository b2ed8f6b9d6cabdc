package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// The traced run. End-to-end numbers come from untraced windows; the traced
// window sends the same kind of requests, records each one's round trip as
// an "http" span, and then replays the request through the layers' public
// functions in the order the handler calls them, one span per call. Spans
// are kept in memory and written out when the run ends. A layer's self time
// is its span's duration minus its children's; the "http" layer's self time
// is what the replayed layers do not account for: transport, handler glue,
// cache and admission.

// span is one timed call. Sub-microsecond calls are timed in batches of
// Reps calls; Reps 0 marks a zero-length marker that carries only Work.
type span struct {
	Req    int64  `json:"req"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a request's roots
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run's epoch
	End    int64  `json:"end_ns"`
	Reps   int32  `json:"reps"`
	Work   int64  `json:"work,omitempty"` // DP cells (N·2^k) for solves, nodes for approx, steps for sessions
	Aux    int64  `json:"aux,omitempty"`  // certified gap (milli) for approx
	Exact  bool   `json:"exact,omitempty"`
}

// tracer hands out request ids and per-worker span logs that share one
// epoch, so the logs need no locking.
type tracer struct {
	epoch time.Time
	reqs  atomic.Int64
	logs  []*spanLog
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// log returns a new span log; not safe for concurrent creation.
func (t *tracer) log() *spanLog {
	l := &spanLog{t: t}
	t.logs = append(t.logs, l)
	return l
}

type spanLog struct {
	t     *tracer
	spans []span
}

func (l *spanLog) newRequest() int64 { return l.t.reqs.Add(1) }

func (l *spanLog) now() int64 { return int64(time.Since(l.t.epoch)) }

// begin opens a span and returns its id, valid within this log.
func (l *spanLog) begin(req int64, parent int32, name string) int32 {
	id := int32(len(l.spans))
	l.spans = append(l.spans, span{Req: req, ID: id, Parent: parent, Name: name, Start: l.now(), Reps: 1})
	return id
}

func (l *spanLog) end(id int32) { l.spans[id].End = l.now() }

// endReps closes a span that timed reps calls of the same function.
func (l *spanLog) endReps(id int32, reps int) {
	l.spans[id].End = l.now()
	l.spans[id].Reps = int32(reps)
}

// record adds a request's root span whose times the caller took.
func (l *spanLog) record(req int64, name string, start, end time.Time) {
	l.spans = append(l.spans, span{Req: req, ID: int32(len(l.spans)), Parent: -1, Name: name,
		Start: int64(start.Sub(l.t.epoch)), End: int64(end.Sub(l.t.epoch)), Reps: 1})
}

// mark adds a marker span carrying a count.
func (l *spanLog) mark(req int64, name string, work int64) {
	t := l.now()
	l.spans = append(l.spans, span{Req: req, ID: int32(len(l.spans)), Parent: -1, Name: name, Start: t, End: t, Work: work})
}

func (t *tracer) spans() []span {
	var out []span
	for _, l := range t.logs {
		out = append(out, l.spans...)
	}
	return out
}

// layerSamples holds one span name's per-call self times (ns) and
// attributes.
type layerSamples struct {
	self  []float64
	work  []float64
	aux   []float64
	exact int
}

// analysis is the traced run's ledger.
type analysis struct {
	replay map[string]*layerSamples // spans of traced requests
	probe  map[string]*layerSamples // spans of the layer probe
	e2e    []float64                // ns, one per traced request
	remain []float64                // ns: e2e minus the request's replayed layer self times
	perReq map[string]float64       // Σ over traced requests of each layer's self time (ns)
	calls  map[string]int           // calls per layer over traced requests
}

// isLayer reports whether a span name is a timed layer call, as opposed to
// a request root or a marker.
func isLayer(s *span) bool { return s.Reps > 0 && s.Name != "http" && s.Name != "replay" }

func analyze(spans []span) *analysis {
	a := &analysis{replay: map[string]*layerSamples{}, probe: map[string]*layerSamples{},
		perReq: map[string]float64{}, calls: map[string]int{}}
	byReq := map[int64][]*span{}
	for i := range spans {
		byReq[spans[i].Req] = append(byReq[spans[i].Req], &spans[i])
	}
	for _, ss := range byReq {
		child := map[int32]float64{}
		var http *span
		for _, s := range ss {
			if s.Parent >= 0 {
				child[s.Parent] += float64(s.End - s.Start)
			}
			if s.Name == "http" {
				http = s
			}
		}
		dst := a.probe
		if http != nil {
			dst = a.replay
		}
		var layers float64
		for _, s := range ss {
			ls := dst[s.Name]
			if ls == nil {
				ls = &layerSamples{}
				dst[s.Name] = ls
			}
			if s.Reps == 0 {
				ls.work = append(ls.work, float64(s.Work))
				continue
			}
			self := (float64(s.End-s.Start) - child[s.ID]) / float64(s.Reps)
			ls.self = append(ls.self, self)
			ls.work = append(ls.work, float64(s.Work))
			ls.aux = append(ls.aux, float64(s.Aux))
			if s.Exact {
				ls.exact++
			}
			if http != nil && isLayer(s) {
				layers += self
				a.perReq[s.Name] += self
				a.calls[s.Name]++
			}
		}
		if http != nil {
			e2e := float64(http.End - http.Start)
			a.e2e = append(a.e2e, e2e)
			a.remain = append(a.remain, e2e-layers)
		}
	}
	return a
}

// pick returns a layer's samples from the traced requests, or from the layer
// probe when the workload's requests never reach the layer.
func (a *analysis) pick(name string) *layerSamples {
	if ls := a.replay[name]; ls != nil && len(ls.work) > 0 {
		return ls
	}
	if ls := a.probe[name]; ls != nil {
		return ls
	}
	return &layerSamples{}
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(v []float64) float64 { return ratio(sum(v), float64(len(v))) }

func sum(v []float64) float64 {
	var t float64
	for _, x := range v {
		t += x
	}
	return t
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// perLayer is the per_layer metric set, in BENCHMARK.json order.
var perLayer = []struct{ name, unit string }{
	{"instio.read_us", "us"},
	{"serve.canon_hash_us", "us"},
	{"serve.encode_us", "us"},
	{"serve.hit_ratio", "ratio"},
	{"serve.solves", "count"},
	{"serve.coalesced", "count"},
	{"serve.rejects", "count"},
	{"serve.fallbacks", "count"},
	{"serve.retries", "count"},
	{"serve.batch_repriced_ratio", "ratio"},
	{"core.seq_ms", "ms"},
	{"core.seq_ns_per_cell", "ns"},
	{"core.parallel_ms", "ms"},
	{"core.batch_ms", "ms"},
	{"core.parallel_speedup", "x"},
	{"core.tree_us", "us"},
	{"core.cells", "count"},
	{"certify.check_us", "us"},
	{"certify.gap_us", "us"},
	{"certify.share", "ratio"},
	{"approx.solve_ms", "ms"},
	{"approx.nodes", "count"},
	{"approx.exact_ratio", "ratio"},
	{"approx.gap_milli_mean", "milli"},
	{"policy.verify_ns", "ns"},
	{"policy.lookup_ns", "ns"},
	{"policy.step_ns", "ns"},
	{"policy.sign_ns", "ns"},
	{"policy.steps_per_session", "count"},
	{"policy.compile_us", "us"},
	{"http.self_us", "us"},
	{"trace.e2e_p50_us", "us"},
	{"trace.untraced_p50_us", "us"},
	{"trace.overhead_us", "us"},
}

// layerValues computes every per-layer metric. delta holds the server's
// counter changes over the untraced window; speedup comes from the probe.
func (a *analysis) layerValues(delta map[string]float64, speedup, untracedP50ms float64) map[string]float64 {
	self := func(name string) float64 { return median(a.pick(name).self) }
	var perCell []float64
	seq := a.pick("core.seq")
	for i, ns := range seq.self {
		perCell = append(perCell, ratio(ns, seq.work[i]))
	}
	// Solve work and the certifier's share of it come from the workload's
	// own solves when it has any, else from the probe's.
	solves := []string{"core.seq", "core.parallel", "core.batch", "approx.solve"}
	selfs := func(ls *layerSamples) []float64 { return ls.self }
	src := a.replay
	if gather(src, solves, selfs) == nil {
		src = a.probe
	}
	solveNS := sum(gather(src, solves, selfs))
	checkNS := sum(gather(src, []string{"certify.check", "certify.gap"}, selfs))
	cells := gather(src, solves[:3], func(ls *layerSamples) []float64 { return ls.work })
	ap := a.pick("approx.solve")
	hits, misses := delta["cache_hits"], delta["cache_misses"]
	e2e := median(a.e2e)
	return map[string]float64{
		"instio.read_us":             self("instio.read") / 1e3,
		"serve.canon_hash_us":        self("serve.canon_hash") / 1e3,
		"serve.encode_us":            self("serve.encode") / 1e3,
		"serve.hit_ratio":            ratio(hits, hits+misses),
		"serve.solves":               delta["solves"],
		"serve.coalesced":            delta["coalesced"],
		"serve.rejects":              delta["reject_busy"] + delta["reject_oversize"] + delta["timeouts"] + delta["failures"],
		"serve.fallbacks":            delta["fallbacks"],
		"serve.retries":              delta["retries"],
		"serve.batch_repriced_ratio": ratio(delta["batch_repriced"], delta["batch_repriced"]+delta["batch_groups"]),
		"core.seq_ms":                self("core.seq") / 1e6,
		"core.seq_ns_per_cell":       median(perCell),
		"core.parallel_ms":           self("core.parallel") / 1e6,
		"core.batch_ms":              self("core.batch") / 1e6,
		"core.parallel_speedup":      speedup,
		"core.tree_us":               self("core.tree") / 1e3,
		"core.cells":                 median(cells),
		"certify.check_us":           self("certify.check") / 1e3,
		"certify.gap_us":             self("certify.gap") / 1e3,
		"certify.share":              ratio(checkNS, solveNS),
		"approx.solve_ms":            self("approx.solve") / 1e6,
		"approx.nodes":               median(ap.work),
		"approx.exact_ratio":         ratio(float64(ap.exact), float64(len(ap.self))),
		"approx.gap_milli_mean":      mean(ap.aux),
		"policy.verify_ns":           self("policy.verify"),
		"policy.lookup_ns":           self("policy.lookup"),
		"policy.step_ns":             self("policy.step"),
		"policy.sign_ns":             self("policy.sign"),
		"policy.steps_per_session":   mean(a.pick("policy.session").work),
		"policy.compile_us":          self("policy.compile") / 1e3,
		"http.self_us":               median(a.remain) / 1e3,
		"trace.e2e_p50_us":           e2e / 1e3,
		"trace.untraced_p50_us":      untracedP50ms * 1e3,
		"trace.overhead_us":          e2e/1e3 - untracedP50ms*1e3,
	}
}

// gather concatenates one field of the named layers' samples.
func gather(src map[string]*layerSamples, names []string, field func(*layerSamples) []float64) []float64 {
	var out []float64
	for _, n := range names {
		if ls := src[n]; ls != nil {
			out = append(out, field(ls)...)
		}
	}
	return out
}

// printLedger prints the reconciliation of layer self times against the
// traced end-to-end time. Means add up exactly, so the table reconciles in
// means; http.self_us is the median of the per-request remainders.
func (a *analysis) printLedger(out io.Writer, workload string, untracedP50ms float64) {
	n := float64(len(a.e2e))
	fmt.Fprintf(out, "ledger %s: %d traced requests; e2e median %.1f us (untraced %.1f us, tracing overhead %+.1f us)\n",
		workload, len(a.e2e), median(a.e2e)/1e3, untracedP50ms*1e3, median(a.e2e)/1e3-untracedP50ms*1e3)
	fmt.Fprintf(out, "  %-18s %10s %16s %16s %8s\n", "layer", "calls/req", "self/call p50 us", "self/req mean us", "share")
	names := make([]string, 0, len(a.perReq))
	for name := range a.perReq {
		names = append(names, name)
	}
	sort.Strings(names)
	e2eMean := mean(a.e2e)
	var layers float64
	for _, name := range names {
		perReq := a.perReq[name] / n
		layers += perReq
		fmt.Fprintf(out, "  %-18s %10.2f %16.3f %16.3f %7.1f%%\n", name, float64(a.calls[name])/n,
			median(a.replay[name].self)/1e3, perReq/1e3, 100*ratio(perReq, e2eMean))
	}
	fmt.Fprintf(out, "  %-18s %10s %16s %16.3f %7.1f%%\n", "sum of layers", "", "", layers/1e3, 100*ratio(layers, e2eMean))
	fmt.Fprintf(out, "  %-18s %10s %16s %16.3f %7.1f%%\n", "remainder (http)", "", "", (e2eMean-layers)/1e3, 100*ratio(e2eMean-layers, e2eMean))
	fmt.Fprintf(out, "  %-18s %10s %16s %16.3f\n", "e2e", "", "", e2eMean/1e3)
	fmt.Fprintf(out, "  http.self_us = median per-request remainder = %.3f us\n", median(a.remain)/1e3)
}

// spansWritten caps the requests whose spans a traced run writes out; the
// ledger uses every span, but a route-walk run records over half a million.
const spansWritten = 10000

// writeSpans writes the spans of the run's first spansWritten requests and
// the run's metadata as one JSON document.
func writeSpans(path string, m meta, all []span) error {
	var spans []span
	for _, s := range all {
		if s.Req <= spansWritten {
			spans = append(spans, s)
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Meta  meta   `json:"meta"`
		Spans []span `json:"spans"`
	}{m, spans}); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// finite replaces NaN and infinities, which JSON cannot carry, with 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
