package main

import (
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"strconv"
	"sync"
)

// The reference request measures the host's speed while a window runs.
// Every refEvery-th request a client sends, its first included, goes to a
// handler the benchmark's server child serves beside serve.Server. The
// handler runs a fixed subset-lattice sweep that is the benchmark's own code,
// so no change to the repository changes its cost; only the host does. When
// the host runs slower (other tenants on the same cores and caches, CPUs
// coming out of a deep sleep), the reference requests slow down with the
// workload's, and dividing by their latency takes the host's drift out of
// the reported latencies.
const (
	refPath  = "/perfbench/ref"
	refEvery = 8
)

// refShape is a workload's reference request: a sweep about as long as the
// workload's fast requests, on as many cores, so that both meet the host in
// the same way. nominalMs is its p10 latency on the host the benchmark was
// built on, which turns a latency ratio back into that host's milliseconds.
type refShape struct {
	bits, workers int
	nominalMs     float64
}

var refShapes = map[string]refShape{
	"solve-cold": {bits: 19, workers: 1, nominalMs: 11.6},
	"solve-hot":  {bits: 12, workers: 1, nominalMs: 0.125},
	"solve-wide": {bits: 18, workers: 2, nominalMs: 4.9},
	"route-walk": {bits: 8, workers: 1, nominalMs: 0.072},
}

func (r refShape) path() string {
	return fmt.Sprintf("%s?bits=%d&workers=%d", refPath, r.bits, r.workers)
}

// refLattice lists a lattice's cells level by level (by popcount); level l
// is cells[start[l]:start[l+1]].
type refLattice struct {
	cells []uint32
	start []int
}

var refLattices sync.Map // bits → *refLattice

func latticeOf(n int) *refLattice {
	if l, ok := refLattices.Load(n); ok {
		return l.(*refLattice)
	}
	l := &refLattice{cells: make([]uint32, 1<<n), start: make([]int, n+2)}
	for s := 0; s < 1<<n; s++ {
		l.start[bits.OnesCount(uint(s))+1]++
	}
	for i := 1; i < len(l.start); i++ {
		l.start[i] += l.start[i-1]
	}
	next := append([]int(nil), l.start...)
	for s := 0; s < 1<<n; s++ {
		c := bits.OnesCount(uint(s))
		l.cells[next[c]] = uint32(s)
		next[c]++
	}
	refLattices.Store(n, l)
	return l
}

// refSweep fills a 2^n lattice level by level with a min-plus recurrence
// over each cell's one-bit-smaller subsets, the DP's access pattern, with
// the given number of workers per level and a barrier between levels, as
// the parallel engine runs. It returns the top cell.
func refSweep(n, workers int) uint32 {
	l := latticeOf(n)
	t := make([]uint32, 1<<n)
	for lv := 1; lv <= n; lv++ {
		cells := l.cells[l.start[lv]:l.start[lv+1]]
		if workers <= 1 {
			refCells(t, cells)
			continue
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			part := cells[w*len(cells)/workers : (w+1)*len(cells)/workers]
			wg.Add(1)
			go func() {
				defer wg.Done()
				refCells(t, part)
			}()
		}
		wg.Wait()
	}
	return t[len(t)-1]
}

func refCells(t []uint32, cells []uint32) {
	for _, s := range cells {
		best := ^uint32(0)
		for b := s; b != 0; b &= b - 1 {
			low := b & -b
			if v := t[s^low] + low*(s%7+1); v < best {
				best = v
			}
		}
		t[s] = best
	}
}

// withReference serves the reference requests and hands the rest to h.
func withReference(h http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", h)
	mux.HandleFunc("POST "+refPath, func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		q := r.URL.Query()
		n, err1 := strconv.Atoi(q.Get("bits"))
		workers, err2 := strconv.Atoi(q.Get("workers"))
		if err1 != nil || err2 != nil || n < 1 || n > 20 || workers < 1 || workers > 8 {
			http.Error(w, "want bits 1..20 and workers 1..8", http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "text/plain")
		_, _ = io.WriteString(w, strconv.FormatUint(uint64(refSweep(n, workers)), 10))
	})
	return mux
}
