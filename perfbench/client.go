package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"
)

// errExhausted ends a worker's loop when its workload has no generated
// request left; it is not a failure.
var errExhausted = errors.New("generated requests exhausted")

// maxConsecutiveErrors stops a worker whose server has evidently gone away,
// instead of spinning on connection refusals until the window ends.
const maxConsecutiveErrors = 50

func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}

// worker is one closed-loop client: it sends its next request only after
// the previous reply has been read in full.
type worker struct {
	id   int
	hc   *http.Client
	base string

	start     time.Time // when the current phase began
	samples   []sample
	attempted int64
	failed    int64 // transport errors and non-200 replies
	buf       bytes.Buffer

	tr  *spanLog // non-nil in the traced phase
	req int64    // request id of the current request's spans

	ref    *refReq         // non-nil when the phase interleaves reference requests
	refLat []time.Duration // reference request latencies
	calls  int
}

// refReq is a workload's reference request and its expected reply.
type refReq struct {
	path string
	want []byte
}

// sample is one completed request.
type sample struct {
	end  time.Duration // completion, since the phase began
	lat  time.Duration // send until the whole reply body is read
	ops  int32
	path string // request path and query, which name the request kind
}

func (w *worker) reset(start time.Time) {
	w.start, w.samples, w.attempted, w.failed = start, w.samples[:0], 0, 0
	w.refLat, w.calls = w.refLat[:0], 0
}

// sendRef sends one reference request and records its latency.
func (w *worker) sendRef() error {
	w.attempted++
	start := time.Now()
	resp, err := w.hc.Post(w.base+w.ref.path, "text/plain", nil)
	if err != nil {
		w.failed++
		return err
	}
	w.buf.Reset()
	_, err = w.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(w.buf.Bytes(), w.ref.want) {
		w.failed++
		return fmt.Errorf("reference request: status %d, reply %q, want %q (%v)", resp.StatusCode, w.buf.Bytes(), w.ref.want, err)
	}
	w.refLat = append(w.refLat, lat)
	return nil
}

// post sends one request and returns the reply body, valid until the next
// post. In the traced phase it records the request's root "http" span.
func (w *worker) post(path string, body []byte) ([]byte, error) {
	w.attempted++
	start := time.Now()
	resp, err := w.hc.Post(w.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		w.failed++
		return nil, err
	}
	w.buf.Reset()
	_, err = w.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	end := time.Now()
	w.samples = append(w.samples, sample{end: end.Sub(w.start), lat: end.Sub(start), path: path})
	if w.tr != nil {
		w.req = w.tr.newRequest()
		w.tr.record(w.req, "http", start, end)
	}
	if err != nil {
		w.failed++
		return nil, fmt.Errorf("%s: reading reply: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		w.failed++
		return nil, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(w.buf.Bytes()))
	}
	return w.buf.Bytes(), nil
}

// phase is the outcome of one closed-loop window.
type phase struct {
	samples   []sample
	refLat    []time.Duration // reference request latencies
	attempted int64
	failed    int64
	elapsed   time.Duration
	firstErr  error
}

// runPhase drives the workload with every worker until the window closes,
// each worker finishing the request it has in flight.
func runPhase(wl workload, workers []*worker, window time.Duration) phase {
	start := time.Now()
	deadline := start.Add(window)
	errs := make([]error, len(workers))
	var wg sync.WaitGroup
	for i, w := range workers {
		w.reset(start)
		wg.Add(1)
		go func(i int, w *worker) {
			defer wg.Done()
			consecutive := 0
			for ; time.Now().Before(deadline); w.calls++ {
				if w.ref != nil && w.calls%refEvery == 0 {
					if err := w.sendRef(); err != nil && errs[i] == nil {
						errs[i] = err
					}
					continue
				}
				n, err := wl.next(w)
				if errors.Is(err, errExhausted) {
					return
				}
				if err != nil {
					if errs[i] == nil {
						errs[i] = err
					}
					if consecutive++; consecutive > maxConsecutiveErrors {
						return
					}
					continue
				}
				consecutive = 0
				w.samples[len(w.samples)-1].ops = int32(n)
			}
		}(i, w)
	}
	wg.Wait()
	ph := phase{elapsed: time.Since(start)}
	for i, w := range workers {
		ph.samples = append(ph.samples, w.samples...)
		ph.refLat = append(ph.refLat, w.refLat...)
		ph.attempted += w.attempted
		ph.failed += w.failed
		if ph.firstErr == nil {
			ph.firstErr = errs[i]
		}
	}
	return ph
}

// ops is the number of ops the phase completed.
func (ph phase) ops() int64 {
	var n int64
	for _, s := range ph.samples {
		n += int64(s.ops)
	}
	return n
}

// summary is the end-to-end figures of one or more phases.
type summary struct {
	requests int
	p50, p99 float64 // ms
	opsPerS  float64
}

// sliceLen is the length of the slices a window is cut into for p50 and
// throughput: their medians over slices shrug off a noise burst on the host
// that a whole-window figure would absorb.
const sliceLen = time.Second

// Tail blocks: p99 is the median over blocks of consecutive requests of
// each block's p99. A block holds at least tailBlock requests, so ten lie
// beyond its p99, and there are at most maxTailBlocks of them.
const (
	tailBlock     = 1000
	maxTailBlocks = 20
)

// summarize gives p50 and ops/s as medians over the phases' full slices,
// and p99 as the median over tail blocks. A slice's rate is the ops
// completed after its first completion over the time from its first to its
// last, which, unlike a count per slice, is not rounded to whole ops.
func summarize(phases []phase) summary {
	type bucket struct {
		lat           []time.Duration
		first, last   time.Duration
		ops, opsFirst float64
	}
	var lat []time.Duration // every request, in completion order
	var p50s, rates []float64
	for _, ph := range phases {
		done := append([]sample(nil), ph.samples...)
		sort.Slice(done, func(i, j int) bool { return done[i].end < done[j].end })
		slice := min(sliceLen, ph.elapsed)
		bs := make([]bucket, int(ph.elapsed/slice))
		for _, s := range done {
			lat = append(lat, s.lat)
			i := int(s.end / slice)
			if i >= len(bs) {
				continue
			}
			b := &bs[i]
			if len(b.lat) == 0 || s.end < b.first {
				b.first, b.opsFirst = s.end, float64(s.ops)
			}
			b.last = max(b.last, s.end)
			b.ops += float64(s.ops)
			b.lat = append(b.lat, s.lat)
		}
		for _, b := range bs {
			if len(b.lat) < 2 {
				continue
			}
			sortDurations(b.lat)
			p50s = append(p50s, quantile(b.lat, 0.5))
			rates = append(rates, (b.ops-b.opsFirst)/(b.last-b.first).Seconds())
		}
	}
	n := len(lat)
	blocks := max(1, min(maxTailBlocks, n/tailBlock))
	var p99s []float64
	for b := 0; b < blocks; b++ {
		block := lat[b*n/blocks : (b+1)*n/blocks]
		sortDurations(block)
		p99s = append(p99s, quantile(block, 0.99))
	}
	return summary{requests: len(lat), p50: median(p50s), p99: median(p99s), opsPerS: median(rates)}
}

func sortDurations(d []time.Duration) { sort.Slice(d, func(i, j int) bool { return d[i] < d[j] }) }

// sortedDurations returns a sorted copy of d.
func sortedDurations(d []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), d...)
	sortDurations(s)
	return s
}

// mixP10 is the phase's p10 latency per request path (the paths name the
// request kinds), averaged over the paths weighted by their request counts,
// in ms. Each kind's fast decile counts, so a change to a slower kind, such
// as solve-cold's approx requests, moves it by that kind's share.
func mixP10(ph phase) float64 {
	byPath := map[string][]time.Duration{}
	for _, s := range ph.samples {
		byPath[s.path] = append(byPath[s.path], s.lat)
	}
	var sum float64
	for _, lat := range byPath {
		sortDurations(lat)
		sum += quantile(lat, 0.1) * float64(len(lat))
	}
	return sum / float64(len(ph.samples))
}

// quantile is the nearest-rank q-quantile of sorted durations, in ms.
func quantile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[max(0, i)]) / 1e6
}
