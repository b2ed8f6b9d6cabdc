package serve

// Graceful degradation past the 2^k wall (docs/RESILIENCE.md): the approx
// engine serves instances the exact DP cannot afford — and backstops the
// exact path when it faults and the request enabled approx — with answers whose
// suboptimality is *certified*, never trusted. The flow mirrors the exact
// path's certify-before-cache contract exactly: the engine's claimed tree,
// cost, and gap go through certify.CertifyGap (independent re-pricing plus
// an independently recomputed lower bound) before a cacheEntry exists, and
// a failed certification is an engine fault like any other. Inadequacy
// claims are certified by their finite witness (certify.CheckInadequate).

import (
	"context"
	"fmt"
	"net/http"

	"repro/internal/approx"
	"repro/internal/certify"
	"repro/internal/core"
)

// oversizeError is an admission-control rejection that names the budget it
// enforces, so 422 bodies can tell the client which knob to turn. It
// unwraps to errOversize for the existing errors.Is seams.
type oversizeError struct {
	budget string // "k", "actions", "batch", "route-batch", "approx-k", "approx-actions"
	limit  int
	got    int
	msg    string
}

func (e *oversizeError) Error() string { return e.msg }
func (e *oversizeError) Unwrap() error { return errOversize }

// oversizeBody is the structured 422 reply: the human-readable error plus
// the machine-readable budget that was exceeded and — when the instance is
// within the approx plane's own caps — the smallest approx= setting that
// would have been accepted, so clients can self-heal by re-asking.
type oversizeBody struct {
	Error      string `json:"error"`
	Budget     string `json:"budget"`
	Limit      int    `json:"limit"`
	Got        int    `json:"got"`
	ApproxHint string `json:"approx_hint,omitempty"`
}

// rejectOversize is the single 422-for-size seam: every admission reject
// goes through it so none can forget the counter or the structured body.
// Callers with no approx path (batch, policy, eval, route) pass a nil p, so
// the body carries no approx hint.
func (s *Server) rejectOversize(w http.ResponseWriter, e *oversizeError, p *core.Problem) {
	s.metrics.RejectOversize.Add(1)
	body := &oversizeBody{Error: e.msg, Budget: e.budget, Limit: e.limit, Got: e.got}
	if p != nil && s.admitApprox(p) == nil {
		// Any enabled approx setting admits this instance; "1" (anytime
		// until proven optimal or budgets run out) is the smallest.
		body.ApproxHint = "approx=1"
	}
	writeJSON(w, http.StatusUnprocessableEntity, body)
}

// admitApprox enforces the approx plane's own (much looser) budget: the
// greedy policies and branch-and-bound hold no 2^K state, so the caps exist
// to bound per-request CPU, not memory blowups.
func (s *Server) admitApprox(p *core.Problem) *oversizeError {
	if p.K > s.cfg.ApproxMaxK {
		return &oversizeError{budget: "approx-k", limit: s.cfg.ApproxMaxK, got: p.K,
			msg: fmt.Sprintf("%v: %d objects > approx max %d", errOversize, p.K, s.cfg.ApproxMaxK)}
	}
	if len(p.Actions) > s.cfg.ApproxMaxActions {
		return &oversizeError{budget: "approx-actions", limit: s.cfg.ApproxMaxActions, got: len(p.Actions),
			msg: fmt.Sprintf("%v: %d actions > approx max %d", errOversize, len(p.Actions), s.cfg.ApproxMaxActions)}
	}
	return nil
}

// cacheKey is the one builder of cache and singleflight keys: the canonical
// hash, plus the approx knob when one is in force. Approx-enabled requests
// get distinct slots from exact ones so a certified-gap answer (cached after
// an oversize route or an exact-path fault) is never served to a request
// that demanded exactness.
func cacheKey(hash string, ap approx.Spec) string {
	if !ap.Enabled {
		return hash
	}
	return hash + "|approx=" + ap.Raw
}

// solveApproxAttempt runs the approx engine once: anytime solve, then gap
// certification. An approximate answer's quality claim is only knowledge at
// all once it has been independently verified.
func (s *Server) solveApproxAttempt(ctx context.Context, hash string, canon *core.Problem, ap approx.Spec) (*cacheEntry, error) {
	res, err := approx.Solve(ctx, canon, approx.Options{
		Deadline:    ap.Deadline,
		TargetMilli: ap.TargetMilli,
		NodeBudget:  s.cfg.ApproxNodes,
	})
	if err != nil {
		return nil, err
	}
	if hook := s.cfg.ResultFault; hook != nil && hook("approx") {
		// Chaos: silently corrupt the answer before certification, exactly
		// as on the exact path.
		if res.Cost >= core.Inf {
			res.Cost, res.Adequate = 42, true
		} else {
			res.Cost++
		}
	}
	ent := &cacheEntry{
		rung: "approx", hash: hash, canon: canon,
		key:    cacheKey(hash, ap),
		approx: true, approxPolicy: res.Policy, approxExact: res.Exact,
	}
	if !res.Adequate {
		if rep := certify.CheckInadequate(canon); !rep.OK() {
			s.metrics.CertifyFail.Add(1)
			return nil, fmt.Errorf("serve: approx inadequate claim refused: %w", rep.Err())
		}
		s.metrics.CertifyPass.Add(1)
		ent.cost, ent.adequate = core.Inf, false
		ent.lowerBound, ent.gapMilli = core.Inf, certify.GapScale
	} else {
		cert, err := certify.CertifyGap(canon, res.Tree, res.Cost, res.GapMilli)
		if err != nil {
			s.metrics.CertifyFail.Add(1)
			return nil, fmt.Errorf("serve: approx answer refused: %w", err)
		}
		s.metrics.CertifyPass.Add(1)
		ent.cost, ent.adequate, ent.tree = cert.Cost(), true, cert.Root()
		ent.lowerBound, ent.gapMilli = cert.LowerBound(), cert.GapMilli()
	}
	s.metrics.ApproxServed.Add(1)
	if res.Exact {
		s.metrics.ApproxExact.Add(1)
	}
	s.metrics.observeGap(ent.gapMilli)
	ent.bytes = entryBytes(ent)
	return ent, nil
}
