package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/approx"
	"repro/internal/certify"
	"repro/internal/core"
	"repro/internal/instio"
	"repro/internal/policy"
	"repro/internal/serve"
	"repro/internal/stripe"
)

// Replays call each layer's public function the way the handler does, with
// ttserve's default Config: fast certification, Workers unset (0), the
// process-wide stripe pool, and the default branch-and-bound node budget.
const (
	replayWorkers = 0
	approxNodes   = 1 << 20
	// routeReps is how many calls one route-plane span times: a single step
	// is a few nanoseconds, below the clock's resolution.
	routeReps = 64
)

// replaySolve replays one /v1/solve request: parse, canonicalize and hash,
// solve (exact engine or approx), tree, certify, encode.
func replaySolve(w *worker, body []byte, engine string, ap approx.Spec, reply []byte) error {
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
	canon, _, err := canonHash(l, req, root, p)
	if err != nil {
		return err
	}
	if ap.Enabled {
		_, err = solveApprox(l, req, root, canon, ap)
	} else {
		_, _, _, err = solveExact(l, req, root, canon, engine)
	}
	if err != nil {
		return err
	}
	encodeReply(l, req, root, &resp)
	return nil
}

// replayBatch replays one /v1/solve/batch request whose instances share one
// lattice: parse, canonicalize and hash each, one batch sweep, then a tree
// and a certification per instance, encode.
func replayBatch(w *worker, body, reply []byte) error {
	var resp serve.BatchResponse
	if err := json.Unmarshal(reply, &resp); err != nil {
		return fmt.Errorf("replay: decoding reply: %w", err)
	}
	l, req := w.tr, w.req
	root := l.begin(req, -1, "replay")
	defer l.end(root)
	s := l.begin(req, root, "instio.read")
	ps, err := instio.ReadBatch(bytes.NewReader(body))
	l.end(s)
	if err != nil {
		return err
	}
	canons := make([]*core.Problem, len(ps))
	for i, p := range ps {
		if canons[i], _, err = canonHash(l, req, root, p); err != nil {
			return err
		}
	}
	if err := solveBatch(l, req, root, canons); err != nil {
		return err
	}
	encodeReply(l, req, root, &resp)
	return nil
}

func canonHash(l *spanLog, req int64, parent int32, p *core.Problem) (*core.Problem, string, error) {
	s := l.begin(req, parent, "serve.canon_hash")
	canon := serve.Canonicalize(p)
	hash, err := serve.Hash(canon)
	l.end(s)
	return canon, hash, err
}

func cells(p *core.Problem) int64 { return int64(len(p.Actions)) << uint(p.K) }

// solveExact runs the seq or parallel engine's path: DP sweep, tree,
// certification. It returns the cost, the tree, and the solve span's id.
func solveExact(l *spanLog, req int64, parent int32, canon *core.Problem, engine string) (uint64, *core.Node, int32, error) {
	ctx := context.Background()
	var sol *core.Solution
	var err error
	var s int32
	if engine == "parallel" {
		s = l.begin(req, parent, "core.parallel")
		sol, err = core.SolveParallelPooledCtx(ctx, canon, replayWorkers, stripe.Shared(), nil, nil)
	} else {
		s = l.begin(req, parent, "core.seq")
		sol, err = core.SolveCheckpointedCtx(ctx, canon, nil, nil)
	}
	l.end(s)
	l.spans[s].Work = cells(canon)
	if err != nil {
		return 0, nil, s, err
	}
	defer sol.Release()
	t := l.begin(req, parent, "core.tree")
	tree, err := sol.Tree(canon)
	l.end(t)
	if err != nil {
		return 0, nil, s, err
	}
	c := l.begin(req, parent, "certify.check")
	rep := certify.Check(canon, sol.Cost, tree, sol.C, sol.Choice, certify.ModeFast, 0)
	l.end(c)
	if !rep.OK() {
		return 0, nil, s, rep.Err()
	}
	return sol.Cost, tree, s, nil
}

// solveApprox runs the approx engine's path: anytime solve, then gap
// certification.
func solveApprox(l *spanLog, req int64, parent int32, canon *core.Problem, ap approx.Spec) (*certify.GapCertificate, error) {
	s := l.begin(req, parent, "approx.solve")
	res, err := approx.Solve(context.Background(), canon, approx.Options{
		Deadline: ap.Deadline, TargetMilli: ap.TargetMilli, NodeBudget: approxNodes})
	l.end(s)
	if err != nil {
		return nil, err
	}
	g := l.begin(req, parent, "certify.gap")
	cert, err := certify.CertifyGap(canon, res.Tree, res.Cost, res.GapMilli)
	l.end(g)
	if err != nil {
		return nil, err
	}
	l.spans[s].Work, l.spans[s].Aux, l.spans[s].Exact = res.Nodes, int64(cert.GapMilli()), res.Exact
	return cert, nil
}

// solveBatch runs the batch path on one same-lattice group: one sweep, then
// a tree from the cost plane and a certification per instance.
func solveBatch(l *spanLog, req int64, parent int32, canons []*core.Problem) error {
	s := l.begin(req, parent, "core.batch")
	sols, err := core.SolveBatchCtx(context.Background(), canons, replayWorkers, stripe.Shared())
	l.end(s)
	l.spans[s].Work = int64(len(canons)) * cells(canons[0])
	if err != nil {
		return err
	}
	for i, sol := range sols {
		t := l.begin(req, parent, "core.tree")
		tree, err := core.TreeFromCosts(canons[i], sol.C)
		l.end(t)
		if err != nil {
			return err
		}
		c := l.begin(req, parent, "certify.check")
		rep := certify.Check(canons[i], sol.Cost, tree, sol.C, nil, certify.ModeFast, 0)
		l.end(c)
		sol.Release()
		if !rep.OK() {
			return rep.Err()
		}
	}
	return nil
}

// encodeReply encodes a reply the way the handler's writeJSON does.
func encodeReply(l *spanLog, req int64, parent int32, v any) {
	s := l.begin(req, parent, "serve.encode")
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // encoding a decoded reply cannot fail
	l.end(s)
}

// compilePolicy runs the publish path after the solve: full tree
// certification, then compilation into an artifact.
func compilePolicy(l *spanLog, req int64, canon *core.Problem, hash string, tree *core.Node, cost uint64) (*policy.Artifact, error) {
	s := l.begin(req, -1, "policy.compile")
	defer l.end(s)
	cert, err := certify.Certify(canon, tree, cost)
	if err != nil {
		return nil, err
	}
	return policy.Compile(cert, hash)
}

// replayRouteStep replays the route plane's step: cursor verify, artifact
// lookup, Step, and re-sign of the next cursor. It returns the next cursor
// and node (policy.Done or policy.None end the walk).
func replayRouteStep(l *spanLog, req int64, parent int32, kr *policy.Keyring, store *policy.Store, cursor string, outcome bool) (string, int32, error) {
	var c policy.Cursor
	var err error
	s := l.begin(req, parent, "policy.verify")
	for i := 0; i < routeReps; i++ {
		c, err = kr.Verify(cursor)
	}
	l.endReps(s, routeReps)
	if err != nil {
		return "", 0, err
	}
	var art *policy.Artifact
	var ok bool
	s = l.begin(req, parent, "policy.lookup")
	for i := 0; i < routeReps; i++ {
		art, ok = store.ByKey(c.Artifact)
	}
	l.endReps(s, routeReps)
	if !ok {
		return "", 0, fmt.Errorf("replay: cursor names no resident artifact")
	}
	var next int32
	s = l.begin(req, parent, "policy.step")
	for i := 0; i < routeReps; i++ {
		next, ok = art.Step(c.Node, outcome)
	}
	l.endReps(s, routeReps)
	if !ok {
		return "", 0, fmt.Errorf("replay: cursor node %d out of range", c.Node)
	}
	if next < 0 {
		return "", next, nil
	}
	var signed string
	s = l.begin(req, parent, "policy.sign")
	for i := 0; i < routeReps; i++ {
		signed = kr.Sign(policy.Cursor{Artifact: c.Artifact, Node: next, Session: c.Session, Step: c.Step + 1})
	}
	l.endReps(s, routeReps)
	return signed, next, nil
}

// drawObject draws the faulty object with probability proportional to its
// weight.
func drawObject(rng *rand.Rand, weights []uint64) int {
	var total uint64
	for _, w := range weights {
		total += w
	}
	x := uint64(rng.Int63n(int64(total)))
	for j, w := range weights {
		if x < w {
			return j
		}
		x -= w
	}
	return len(weights) - 1
}

// Probe sizes: a few instances of the solve-wide parallel size, one batch
// group, one approx instance, and walks over the probe's compiled policies.
const (
	probeInstances = 3
	probeSessions  = 32
)

// probe times every layer on inputs of its own, so a traced run reports
// each per-layer metric even for layers its workload never reaches. It
// returns the parallel speedup: the median over its instances of seq time
// over parallel time on the same instance.
func probe(l *spanLog, seed int64) (float64, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x70be))
	kr, err := policy.NewKeyring()
	if err != nil {
		return 0, err
	}
	store := policy.NewStore(0)
	var speedups []float64
	var arts []*policy.Artifact
	for i := 0; i < probeInstances; i++ {
		p := domainInstance(rng.Int63(), wideParallelK, i)
		body, err := encodeInstance(p)
		if err != nil {
			return 0, err
		}
		req := l.newRequest()
		s := l.begin(req, -1, "instio.read")
		p, err = instio.Read(bytes.NewReader(body))
		l.end(s)
		if err != nil {
			return 0, err
		}
		canon, hash, err := canonHash(l, req, -1, p)
		if err != nil {
			return 0, err
		}
		cost, tree, seqSpan, err := solveExact(l, req, -1, canon, "seq")
		if err != nil {
			return 0, err
		}
		pcost, _, parSpan, err := solveExact(l, req, -1, canon, "parallel")
		if err != nil {
			return 0, err
		}
		if pcost != cost {
			return 0, fmt.Errorf("probe: parallel cost %d, seq cost %d", pcost, cost)
		}
		sd, pd := l.spans[seqSpan], l.spans[parSpan]
		speedups = append(speedups, ratio(float64(sd.End-sd.Start), float64(pd.End-pd.Start)))
		art, err := compilePolicy(l, req, canon, hash, tree, cost)
		if err != nil {
			return 0, err
		}
		if art, err = store.Publish(art); err != nil {
			return 0, err
		}
		arts = append(arts, art)
	}

	group := sameLatticeGroup(rng, wideBatchK, wideBatchG)
	for i := range group {
		group[i] = serve.Canonicalize(group[i])
	}
	if err := solveBatch(l, l.newRequest(), -1, group); err != nil {
		return 0, err
	}
	spec, err := approx.ParseSpec(coldApproxSpec)
	if err != nil {
		return 0, err
	}
	if _, err := solveApprox(l, l.newRequest(), -1, serve.Canonicalize(coldApproxInstance(rng.Int63())), spec); err != nil {
		return 0, err
	}

	for i := 0; i < probeSessions; i++ {
		art := arts[i%len(arts)]
		obj := drawObject(rng, art.Weights)
		cursor := kr.Sign(policy.Cursor{Artifact: art.Key(), Node: art.Root, Session: uint32(i + 1)})
		node := art.Root
		steps := int64(0)
		var req int64
		for {
			req = l.newRequest()
			act, _ := art.ActionAt(node)
			cursor, node, err = replayRouteStep(l, req, -1, kr, store, cursor, act.Set.Has(obj))
			if err != nil {
				return 0, err
			}
			steps++
			if node == policy.Done {
				break
			}
			if node < 0 {
				return 0, fmt.Errorf("probe: impossible outcome on policy %s", art.ID)
			}
		}
		l.mark(req, "policy.session", steps)
	}
	return median(speedups), nil
}
