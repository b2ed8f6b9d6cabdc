package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/approx"
	"repro/internal/certify"
	"repro/internal/core"
	"repro/internal/instio"
	"repro/internal/policy"
	"repro/internal/serve"
	gen "repro/internal/workload"
)

// A workload generates every input from its seed before any timing, brings
// a freshly started server to its steady state in setup (timed as set-up),
// sends one request per next call, and checks every kept answer after the
// windows.
type workload interface {
	clients() int
	setup(ws []*worker) error
	// next sends worker w's next request and returns the ops it completed.
	// In the traced phase (w.tr set) it then replays the request through
	// the layers.
	next(w *worker) (int, error)
	// prepareTrace runs once between the untraced and the traced window.
	prepareTrace(l *spanLog) error
	// check returns one line per wrong answer.
	check() []string
}

var workloadNames = []string{"solve-cold", "solve-hot", "solve-wide", "route-walk"}

func newWorkload(name string, seed int64, window time.Duration) (workload, error) {
	switch name {
	case "solve-cold":
		return newSolveCold(seed, window)
	case "solve-hot":
		return newSolveHot(seed, window)
	case "solve-wide":
		return newSolveWide(seed, window)
	case "route-walk":
		return newRouteWalk(seed, window)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// Workload shapes. See README.md for why each workload has the shape it has.
const (
	coldClients    = 2
	coldK          = 16
	coldApproxK    = 24
	coldApproxSpec = "1.2" // tight enough that branch-and-bound runs
	coldApproxEach = 8     // every 8th solve-cold request is oversized
	coldMaxRate    = 250   // req/s the generated bodies must outlast

	hotClients = 2
	hotPool    = 256
	hotPerms   = 4 // pre-encoded action-order permutations per pool instance
	hotZipfS   = 1.1
	hotMaxRate = 10000

	wideClients   = 1
	wideParallelK = 15
	wideBatchK    = 13
	wideBatchG    = 4
	wideMaxRate   = 400
	routeClients  = 2
	routePolicies = 32
	routeMaxRate  = 8000 // sessions/s per client the plans must outlast
	memoSample    = 12   // solve answers per run re-derived with core.SolveMemo
	warmRequests  = 64
	// warmSeed seeds solve-cold's and solve-wide's warm-up instances, the
	// same for every run, so that set-up does the same work whatever the
	// workload seed.
	warmSeed = -1
)

// domainInstance generates an instance from one of the paper's serving
// domains, rotating Random, MedicalDiagnosis, FaultLocation and
// SystematicBiology by kind.
func domainInstance(seed int64, k, kind int) *core.Problem {
	switch kind % 4 {
	case 0:
		return gen.Random(seed, k, k, k/2)
	case 1:
		return gen.MedicalDiagnosis(seed, k)
	case 2:
		return gen.FaultLocation(seed, k, 4)
	default:
		return gen.SystematicBiology(seed, k)
	}
}

func coldApproxInstance(seed int64) *core.Problem { return gen.Oversized(seed, coldApproxK) }

func encodeInstance(p *core.Problem) ([]byte, error) {
	var b bytes.Buffer
	if err := instio.Write(&b, p, ""); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// sameLatticeGroup returns g instances that share one subset lattice: a base
// instance and g-1 re-pricings with fresh weights and action costs.
func sameLatticeGroup(rng *rand.Rand, k, g int) []*core.Problem {
	base := domainInstance(rng.Int63(), k, rng.Intn(4))
	group := []*core.Problem{base}
	for len(group) < g {
		q := base.Clone()
		for j := range q.Weights {
			q.Weights[j] = uint64(1 + rng.Intn(50))
		}
		for i := range q.Actions {
			q.Actions[i].Cost = uint64(1 + rng.Intn(40))
		}
		group = append(group, q)
	}
	return group
}

func capacity(window time.Duration, rate float64) int {
	return int(window.Seconds()*rate) + 64
}

// parallelDo runs task(w, i) for i in [0, n) spread over the workers.
func parallelDo(ws []*worker, n int, task func(w *worker, i int) error) error {
	var next atomic.Int64
	errs := make([]error, len(ws))
	var wg sync.WaitGroup
	for wi, w := range ws {
		wg.Add(1)
		go func(wi int, w *worker) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := task(w, i); err != nil {
					errs[wi] = err
					return
				}
			}
		}(wi, w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// kept is one reply kept for the after-window check.
type kept struct {
	item  int
	reply []byte
}

// solveAnswer is a solved instance whose cost a check may re-derive.
type solveAnswer struct {
	label string
	p     *core.Problem
	cost  uint64
}

// memoCheck re-derives a seeded sample of answers with core.SolveMemo, the
// independent top-down oracle.
func memoCheck(seed int64, answers []solveAnswer) []string {
	sort.Slice(answers, func(i, j int) bool { return answers[i].label < answers[j].label })
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(answers), func(i, j int) { answers[i], answers[j] = answers[j], answers[i] })
	var bad []string
	for _, a := range answers[:min(memoSample, len(answers))] {
		want, err := core.SolveMemo(a.p)
		if err != nil {
			bad = append(bad, fmt.Sprintf("%s: SolveMemo: %v", a.label, err))
		} else if want != a.cost {
			bad = append(bad, fmt.Sprintf("%s: cost %d, SolveMemo says %d", a.label, a.cost, want))
		}
	}
	return bad
}

// checkSolveReply checks one /v1/solve reply for p and returns its cost. An
// exact request must get an exact answer. An approx reply must carry the
// certifier's lower bound, a cost no lower than it, and a gap that covers its
// cost.
func checkSolveReply(p *core.Problem, reply []byte, wantApprox bool) (uint64, error) {
	var r serve.SolveResponse
	if err := json.Unmarshal(reply, &r); err != nil {
		return 0, fmt.Errorf("decoding reply: %w", err)
	}
	if !r.Adequate || r.Cost == nil {
		return 0, fmt.Errorf("no cost for an adequate instance")
	}
	if !wantApprox {
		if r.SolvedBy == "approx" || r.GapMilli != nil || r.LowerBound != nil {
			return 0, fmt.Errorf("an approximate answer (solved_by %q) to an exact request", r.SolvedBy)
		}
		return *r.Cost, nil
	}
	if r.SolvedBy != "approx" || r.LowerBound == nil || r.GapMilli == nil {
		return 0, fmt.Errorf("solved_by %q without the approx fields", r.SolvedBy)
	}
	if lb := certify.LowerBound(p); *r.LowerBound != lb {
		return 0, fmt.Errorf("lower_bound %d, certify.LowerBound says %d", *r.LowerBound, lb)
	}
	if *r.Cost < *r.LowerBound {
		return 0, fmt.Errorf("cost %d below lower_bound %d", *r.Cost, *r.LowerBound)
	}
	if *r.GapMilli < certify.GapScale {
		return 0, fmt.Errorf("gap_milli %d below %d, which claims better than optimal", *r.GapMilli, certify.GapScale)
	}
	hi1, lo1 := bits.Mul64(*r.Cost, certify.GapScale)
	hi2, lo2 := bits.Mul64(*r.GapMilli, *r.LowerBound)
	if hi1 > hi2 || (hi1 == hi2 && lo1 > lo2) {
		return 0, fmt.Errorf("cost %d exceeds gap_milli %d over lower_bound %d", *r.Cost, *r.GapMilli, *r.LowerBound)
	}
	return *r.Cost, nil
}

// --- solve-cold ---

// solveCold sends only new instances, so every request runs the DP (or, for
// every 8th, the approx engine) and inserts into the LRU.
type solveCold struct {
	seed   int64
	spec   approx.Spec
	probs  []*core.Problem
	bodies [][]byte
	approx []bool
	timed  int // bodies [0, timed) are the windows'; the rest warm each set-up
	cursor atomic.Int64
	kept   [][]kept
}

func newSolveCold(seed int64, window time.Duration) (*solveCold, error) {
	spec, err := approx.ParseSpec(coldApproxSpec)
	if err != nil {
		return nil, err
	}
	c := &solveCold{seed: seed, spec: spec, kept: make([][]kept, coldClients), timed: capacity(window, coldMaxRate)}
	rng, warm := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(warmSeed))
	for i := 0; i < c.timed+warmRequests; i++ {
		r := rng
		if i >= c.timed {
			r = warm
		}
		isApprox := i%coldApproxEach == coldApproxEach-1
		var p *core.Problem
		if isApprox {
			p = coldApproxInstance(r.Int63())
		} else {
			p = domainInstance(r.Int63(), coldK, i)
		}
		body, err := encodeInstance(p)
		if err != nil {
			return nil, err
		}
		c.probs, c.bodies, c.approx = append(c.probs, p), append(c.bodies, body), append(c.approx, isApprox)
	}
	return c, nil
}

func (c *solveCold) clients() int { return coldClients }

// setup warms a fresh server's DP table pools with instances the windows
// never send.
func (c *solveCold) setup(ws []*worker) error {
	return parallelDo(ws, len(c.bodies)-c.timed, func(w *worker, i int) error {
		_, err := w.post(c.path(c.timed+i), c.bodies[c.timed+i])
		return err
	})
}

func (c *solveCold) path(i int) string {
	if c.approx[i] {
		return "/v1/solve?approx=" + coldApproxSpec
	}
	return "/v1/solve"
}

func (c *solveCold) next(w *worker) (int, error) {
	i := int(c.cursor.Add(1) - 1)
	if i >= c.timed {
		return 0, errExhausted
	}
	reply, err := w.post(c.path(i), c.bodies[i])
	if err != nil {
		return 0, err
	}
	reply = bytes.Clone(reply)
	c.kept[w.id] = append(c.kept[w.id], kept{i, reply})
	if w.tr != nil {
		ap := approx.Spec{Raw: "off"}
		if c.approx[i] {
			ap = c.spec
		}
		if err := replaySolve(w, c.bodies[i], "seq", ap, reply); err != nil {
			w.failed++
			return 0, err
		}
	}
	return 1, nil
}

func (c *solveCold) prepareTrace(*spanLog) error { return nil }

func (c *solveCold) check() []string {
	var bad []string
	var exact []solveAnswer
	for _, ks := range c.kept {
		for _, k := range ks {
			cost, err := checkSolveReply(c.probs[k.item], k.reply, c.approx[k.item])
			label := fmt.Sprintf("solve-cold request %06d", k.item)
			if err != nil {
				bad = append(bad, label+": "+err.Error())
			} else if !c.approx[k.item] {
				exact = append(exact, solveAnswer{label, c.probs[k.item], cost})
			}
		}
	}
	return append(bad, memoCheck(c.seed, exact)...)
}

// --- solve-hot ---

// solveHot asks, again and again, for instances the set-up already solved:
// every request is a cache hit through Canonicalize and Hash.
type solveHot struct {
	seed   int64
	probs  []*core.Problem
	pool   [][]byte // unpermuted pool instances, solved in set-up
	bodies [][]byte // body b is a permutation of pool instance b/hotPerms
	order  []int32  // request i sends bodies[order[i]]
	want   []hotAnswer
	cursor atomic.Int64
	kept   [][]kept
}

type hotAnswer struct {
	hash string
	cost uint64
}

func newSolveHot(seed int64, window time.Duration) (*solveHot, error) {
	h := &solveHot{seed: seed, want: make([]hotAnswer, hotPool), kept: make([][]kept, hotClients)}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < hotPool; i++ {
		p := domainInstance(rng.Int63(), 10+i%7, i)
		body, err := encodeInstance(p)
		if err != nil {
			return nil, err
		}
		h.probs, h.pool = append(h.probs, p), append(h.pool, body)
		for j := 0; j < hotPerms; j++ {
			q := p.Clone()
			rng.Shuffle(len(q.Actions), func(a, b int) { q.Actions[a], q.Actions[b] = q.Actions[b], q.Actions[a] })
			body, err := encodeInstance(q)
			if err != nil {
				return nil, err
			}
			h.bodies = append(h.bodies, body)
		}
	}
	// Zipf rank r asks for pool instance r, whose k and domain are fixed by
	// r, so every seed gives the hot set the same size profile.
	zipf := rand.NewZipf(rng, hotZipfS, 1, hotPool-1)
	h.order = make([]int32, capacity(window, hotMaxRate))
	for i := range h.order {
		h.order[i] = int32(int(zipf.Uint64())*hotPerms + rng.Intn(hotPerms))
	}
	return h, nil
}

func (h *solveHot) clients() int { return hotClients }

// setup solves the whole pool, recording each answer, then warms the hit
// path.
func (h *solveHot) setup(ws []*worker) error {
	err := parallelDo(ws, hotPool, func(w *worker, i int) error {
		reply, err := w.post("/v1/solve", h.pool[i])
		if err != nil {
			return err
		}
		var r serve.SolveResponse
		if err := json.Unmarshal(reply, &r); err != nil {
			return fmt.Errorf("solve-hot set-up: %w", err)
		}
		if r.Cost == nil {
			return fmt.Errorf("solve-hot set-up: pool instance %d has no cost", i)
		}
		h.want[i] = hotAnswer{r.InstanceHash, *r.Cost}
		return nil
	})
	if err != nil {
		return err
	}
	return parallelDo(ws, warmRequests, func(w *worker, i int) error {
		_, err := w.post("/v1/solve", h.bodies[i*len(h.bodies)/warmRequests])
		return err
	})
}

func (h *solveHot) next(w *worker) (int, error) {
	i := int(h.cursor.Add(1) - 1)
	if i >= len(h.order) {
		return 0, errExhausted
	}
	b := int(h.order[i])
	reply, err := w.post("/v1/solve", h.bodies[b])
	if err != nil {
		return 0, err
	}
	reply = bytes.Clone(reply)
	h.kept[w.id] = append(h.kept[w.id], kept{b, reply})
	if w.tr != nil {
		if err := replayHit(w, h.bodies[b], reply); err != nil {
			w.failed++
			return 0, err
		}
	}
	return 1, nil
}

// replayHit replays a cache hit: parse, canonicalize and hash, encode. The
// LRU lookup itself has no public entry point and stays in the remainder.
func replayHit(w *worker, body, reply []byte) error {
	var resp serve.SolveResponse
	if err := json.Unmarshal(reply, &resp); err != nil {
		return fmt.Errorf("replay: decoding reply: %w", err)
	}
	l, req := w.tr, w.req
	root := l.begin(req, -1, "replay")
	defer l.end(root)
	s := l.begin(req, root, "instio.read")
	p, err := instio.Read(bytes.NewReader(body))
	l.end(s)
	if err != nil {
		return err
	}
	if _, _, err := canonHash(l, req, root, p); err != nil {
		return err
	}
	encodeReply(l, req, root, &resp)
	return nil
}

func (h *solveHot) prepareTrace(*spanLog) error { return nil }

// check verifies every reply against the set-up answer, and a seeded
// sample of the set-up answers against core.SolveMemo.
func (h *solveHot) check() []string {
	answers := make([]solveAnswer, hotPool)
	for i, w := range h.want {
		answers[i] = solveAnswer{fmt.Sprintf("solve-hot pool instance %03d", i), h.probs[i], w.cost}
	}
	bad := memoCheck(h.seed, answers)
	for _, ks := range h.kept {
		for _, k := range ks {
			want := h.want[k.item/hotPerms]
			var r serve.SolveResponse
			switch err := json.Unmarshal(k.reply, &r); {
			case err != nil:
				bad = append(bad, fmt.Sprintf("solve-hot body %d: decoding reply: %v", k.item, err))
			case !r.Cached:
				bad = append(bad, fmt.Sprintf("solve-hot body %d: not served from the cache", k.item))
			case r.InstanceHash != want.hash || r.Cost == nil || *r.Cost != want.cost:
				bad = append(bad, fmt.Sprintf("solve-hot body %d: answer differs from the set-up answer", k.item))
			}
		}
	}
	return bad
}

// --- solve-wide ---

// solveWide alternates two request kinds that each use the whole host:
// parallel-engine solves and same-lattice batches.
type solveWide struct {
	seed   int64
	reqs   []wideReq
	warm   []wideReq
	cursor atomic.Int64
	kept   [][]kept
}

type wideReq struct {
	batch bool
	probs []*core.Problem
	body  []byte
}

func newSolveWide(seed int64, window time.Duration) (*solveWide, error) {
	s := &solveWide{seed: seed, kept: make([][]kept, wideClients)}
	rng, warm := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(warmSeed))
	n := capacity(window, wideMaxRate)
	for i := 0; i < n+warmRequests; i++ {
		if i == n {
			rng = warm
		}
		var r wideReq
		if rng.Intn(2) == 0 {
			r.probs = []*core.Problem{domainInstance(rng.Int63(), wideParallelK, i)}
			body, err := encodeInstance(r.probs[0])
			if err != nil {
				return nil, err
			}
			r.body = body
		} else {
			r.batch = true
			r.probs = sameLatticeGroup(rng, wideBatchK, wideBatchG)
			var b bytes.Buffer
			if err := instio.WriteBatch(&b, r.probs, ""); err != nil {
				return nil, err
			}
			r.body = b.Bytes()
		}
		if i >= n {
			s.warm = append(s.warm, r)
		} else {
			s.reqs = append(s.reqs, r)
		}
	}
	return s, nil
}

func (s *solveWide) clients() int { return wideClients }

func (r *wideReq) path() string {
	if r.batch {
		return "/v1/solve/batch"
	}
	return "/v1/solve?engine=parallel"
}

func (s *solveWide) setup(ws []*worker) error {
	return parallelDo(ws, len(s.warm), func(w *worker, i int) error {
		_, err := w.post(s.warm[i].path(), s.warm[i].body)
		return err
	})
}

func (s *solveWide) next(w *worker) (int, error) {
	i := int(s.cursor.Add(1) - 1)
	if i >= len(s.reqs) {
		return 0, errExhausted
	}
	r := &s.reqs[i]
	reply, err := w.post(r.path(), r.body)
	if err != nil {
		return 0, err
	}
	reply = bytes.Clone(reply)
	s.kept[w.id] = append(s.kept[w.id], kept{i, reply})
	if w.tr != nil {
		if r.batch {
			err = replayBatch(w, r.body, reply)
		} else {
			err = replaySolve(w, r.body, "parallel", approx.Spec{Raw: "off"}, reply)
		}
		if err != nil {
			w.failed++
			return 0, err
		}
	}
	return len(r.probs), nil
}

func (s *solveWide) prepareTrace(*spanLog) error { return nil }

func (s *solveWide) check() []string {
	var bad []string
	var answers []solveAnswer
	for _, ks := range s.kept {
		for _, k := range ks {
			r := &s.reqs[k.item]
			label := fmt.Sprintf("solve-wide request %06d", k.item)
			if !r.batch {
				cost, err := checkSolveReply(r.probs[0], k.reply, false)
				if err != nil {
					bad = append(bad, label+": "+err.Error())
					continue
				}
				answers = append(answers, solveAnswer{label, r.probs[0], cost})
				continue
			}
			var resp serve.BatchResponse
			if err := json.Unmarshal(k.reply, &resp); err != nil || len(resp.Items) != len(r.probs) {
				bad = append(bad, fmt.Sprintf("%s: batch reply with %d items for %d instances (%v)", label, len(resp.Items), len(r.probs), err))
				continue
			}
			for j, it := range resp.Items {
				if it.Error != "" || it.Cost == nil {
					bad = append(bad, fmt.Sprintf("%s item %d: no cost (%s)", label, j, it.Error))
					continue
				}
				if it.SolvedBy == "approx" {
					bad = append(bad, fmt.Sprintf("%s item %d: an approximate answer to an exact request", label, j))
					continue
				}
				answers = append(answers, solveAnswer{fmt.Sprintf("%s item %d", label, j), r.probs[j], *it.Cost})
			}
		}
	}
	return append(bad, memoCheck(s.seed, answers)...)
}

// --- route-walk ---

// routeWalk walks sessions over published policies through /v1/route: no
// request solves anything.
type routeWalk struct {
	insts  []*core.Problem
	bodies [][]byte
	pols   []routePolicy      // from the latest set-up
	plans  [][]sessionPlan    // per worker
	states []routeState       // per worker
	done   [][]sessionRec     // per worker
	bad    [][]string         // per worker: anomalies seen while walking
	kr     *policy.Keyring    // the traced replay's own keyring and store
	store  *policy.Store      //
	arts   []*policy.Artifact // by policy index, for the traced replay
}

type routePolicy struct {
	id      string
	start   []byte // the session-start request body
	actions []serve.PolicyAction
}

type sessionPlan struct {
	policy int32
	object int32
}

type routeState struct {
	next   int // index of the worker's next plan
	active bool
	plan   sessionPlan
	cursor string
	action int32
	steps  int32
	local  string // the traced replay's cursor for the same session
}

type sessionRec struct {
	plan  sessionPlan
	steps int32
	last  int32 // the action whose positive outcome ended the session
}

func newRouteWalk(seed int64, window time.Duration) (*routeWalk, error) {
	r := &routeWalk{
		plans:  make([][]sessionPlan, routeClients),
		states: make([]routeState, routeClients),
		done:   make([][]sessionRec, routeClients),
		bad:    make([][]string, routeClients),
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < routePolicies; i++ {
		p := domainInstance(rng.Int63(), 12+i%5, i)
		body, err := encodeInstance(p)
		if err != nil {
			return nil, err
		}
		r.insts, r.bodies = append(r.insts, p), append(r.bodies, body)
	}
	n := capacity(window, routeMaxRate)
	for w := range r.plans {
		r.plans[w] = make([]sessionPlan, n)
		for i := range r.plans[w] {
			pi := rng.Intn(routePolicies)
			r.plans[w][i] = sessionPlan{int32(pi), int32(drawObject(rng, r.insts[pi].Weights))}
		}
	}
	return r, nil
}

func (r *routeWalk) clients() int { return routeClients }

// setup publishes every policy, then opens one session on each.
func (r *routeWalk) setup(ws []*worker) error {
	for i := range r.states {
		r.states[i].active = false // a fresh server cannot verify the old one's cursors
	}
	r.pols = make([]routePolicy, routePolicies)
	err := parallelDo(ws, routePolicies, func(w *worker, i int) error {
		reply, err := w.post("/v1/policy", r.bodies[i])
		if err != nil {
			return err
		}
		var resp serve.PolicyResponse
		if err := json.Unmarshal(reply, &resp); err != nil {
			return fmt.Errorf("route-walk set-up: %w", err)
		}
		start, err := json.Marshal(serve.RouteRequest{Policy: resp.Policy})
		if err != nil {
			return err
		}
		r.pols[i] = routePolicy{id: resp.Policy, start: start, actions: resp.Actions}
		return nil
	})
	if err != nil {
		return err
	}
	return parallelDo(ws, routePolicies, func(w *worker, i int) error {
		_, err := w.post("/v1/route", r.pols[i].start)
		return err
	})
}

func (r *routeWalk) next(w *worker) (int, error) {
	st := &r.states[w.id]
	if !st.active {
		if st.next >= len(r.plans[w.id]) {
			return 0, errExhausted
		}
		st.plan = r.plans[w.id][st.next]
		st.next++
		reply, err := w.post("/v1/route", r.pols[st.plan.policy].start)
		if err != nil {
			return 0, err
		}
		var resp serve.RouteResponse
		if err := r.decode(w, reply, &resp); err != nil {
			return 0, err
		}
		st.active, st.cursor, st.action, st.steps = true, resp.Cursor, resp.Action, 0
		if w.tr != nil {
			if err := r.replayStart(w, st, &resp); err != nil {
				w.failed++
				return 0, err
			}
		}
		return 1, nil
	}
	outcome := hasObject(r.pols[st.plan.policy].actions[st.action].Objects, int(st.plan.object))
	body := append(append(append([]byte(`{"cursor":"`), st.cursor...), `","outcome":`...), strconv.FormatBool(outcome)+"}"...)
	reply, err := w.post("/v1/route", body)
	if err != nil {
		st.active = false
		return 0, err
	}
	var resp serve.RouteResponse
	if err := r.decode(w, reply, &resp); err != nil {
		st.active = false
		return 0, err
	}
	st.steps++
	if w.tr != nil {
		if err := r.replayStep(w, st, outcome, &resp); err != nil {
			st.active = false
			w.failed++
			return 0, err
		}
	}
	if resp.Done {
		r.done[w.id] = append(r.done[w.id], sessionRec{st.plan, st.steps, st.action})
		st.active = false
		if w.tr != nil {
			w.tr.mark(w.req, "policy.session", int64(st.steps))
		}
		return 1, nil
	}
	st.cursor, st.action = resp.Cursor, resp.Action
	return 1, nil
}

// decode parses a route reply and checks that it names a valid next action;
// an invalid one is a wrong answer.
func (r *routeWalk) decode(w *worker, reply []byte, resp *serve.RouteResponse) error {
	st := &r.states[w.id]
	err := json.Unmarshal(reply, resp)
	if err == nil && !resp.Done && (resp.Cursor == "" || resp.Action < 0 || int(resp.Action) >= len(r.pols[st.plan.policy].actions)) {
		err = fmt.Errorf("reply names action %d with cursor %q", resp.Action, resp.Cursor)
	}
	if err != nil {
		err = fmt.Errorf("route-walk policy %d: %w", st.plan.policy, err)
		r.bad[w.id] = append(r.bad[w.id], err.Error())
		w.failed++
	}
	return err
}

func hasObject(objects []int, j int) bool {
	for _, o := range objects {
		if o == j {
			return true
		}
	}
	return false
}

// prepareTrace compiles the same policies locally, so the traced window can
// replay every step against its own keyring and store, and abandons the
// sessions the untraced window left open.
func (r *routeWalk) prepareTrace(l *spanLog) error {
	kr, err := policy.NewKeyring()
	if err != nil {
		return err
	}
	r.kr, r.store, r.arts = kr, policy.NewStore(0), make([]*policy.Artifact, routePolicies)
	for i, p := range r.insts {
		canon := serve.Canonicalize(p)
		hash, err := serve.Hash(canon)
		if err != nil {
			return err
		}
		if hash != r.pols[i].id {
			return fmt.Errorf("route-walk: policy %d compiles to id %s, server published %s", i, hash, r.pols[i].id)
		}
		sol, err := core.SolveCheckpointedCtx(context.Background(), canon, nil, nil)
		if err != nil {
			return err
		}
		tree, err := sol.Tree(canon)
		cost := sol.Cost
		sol.Release()
		if err != nil {
			return err
		}
		art, err := compilePolicy(l, l.newRequest(), canon, hash, tree, cost)
		if err != nil {
			return err
		}
		if r.arts[i], err = r.store.Publish(art); err != nil {
			return err
		}
	}
	for i := range r.states {
		r.states[i].active = false
	}
	return nil
}

func (r *routeWalk) replayStart(w *worker, st *routeState, resp *serve.RouteResponse) error {
	art := r.arts[st.plan.policy]
	if art.Nodes[art.Root].Action != resp.Action {
		return fmt.Errorf("replay: local policy starts with action %d, server with %d", art.Nodes[art.Root].Action, resp.Action)
	}
	l, req := w.tr, w.req
	root := l.begin(req, -1, "replay")
	defer l.end(root)
	s := l.begin(req, root, "policy.sign")
	for i := 0; i < routeReps; i++ {
		st.local = r.kr.Sign(policy.Cursor{Artifact: art.Key(), Node: art.Root, Session: resp.Session})
	}
	l.endReps(s, routeReps)
	encodeReply(l, req, root, resp)
	return nil
}

func (r *routeWalk) replayStep(w *worker, st *routeState, outcome bool, resp *serve.RouteResponse) error {
	l, req := w.tr, w.req
	root := l.begin(req, -1, "replay")
	defer l.end(root)
	next, node, err := replayRouteStep(l, req, root, r.kr, r.store, st.local, outcome)
	if err != nil {
		return err
	}
	art := r.arts[st.plan.policy]
	if (node == policy.Done) != resp.Done || (node >= 0 && art.Nodes[node].Action != resp.Action) {
		return fmt.Errorf("replay: local step diverged from the server's on policy %d", st.plan.policy)
	}
	st.local = next
	encodeReply(l, req, root, resp)
	return nil
}

// check verifies that every finished session ended on a treatment that
// contains its drawn object.
func (r *routeWalk) check() []string {
	var bad []string
	for w := range r.done {
		bad = append(bad, r.bad[w]...)
		for _, s := range r.done[w] {
			act := r.pols[s.plan.policy].actions[s.last]
			if !act.Treatment || !hasObject(act.Objects, int(s.plan.object)) {
				bad = append(bad, fmt.Sprintf("route-walk policy %d: session for object %d ended on action %d (%s)",
					s.plan.policy, s.plan.object, s.last, act.Name))
			}
		}
	}
	return bad
}
