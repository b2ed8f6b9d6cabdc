package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/approx"
	"repro/internal/certify"
	"repro/internal/policy"
)

// The route plane: POST /v1/policy compiles a certified solve into an
// immutable policy artifact; POST /v1/route and /v1/route/batch walk it one
// outcome at a time. Sessions are stateless on the server — all state rides
// in an opaque, MAC-signed cursor the client replays — so a step is cursor
// verify + lock-free artifact lookup + bounds-checked array read + cursor
// re-sign, with no allocation proportional to session count. Publishing
// goes through the full solve admission path (it may run a solve); stepping
// is served even while draining, since a step costs less than the health
// check that would reject it.

// PolicyAction is one action of a published policy, in artifact order —
// the indices /v1/route responses refer to.
type PolicyAction struct {
	Name      string `json:"name,omitempty"`
	Objects   []int  `json:"objects"`
	Cost      uint64 `json:"cost"`
	Treatment bool   `json:"treatment,omitempty"`
}

// PolicyResponse is the /v1/policy reply.
type PolicyResponse struct {
	Policy      string         `json:"policy"`  // canonical instance hash; the route id
	Version     uint32         `json:"version"` // store-assigned, monotonic per id
	K           int            `json:"k"`
	Cost        uint64         `json:"cost"` // certified optimum C(U)
	Nodes       int            `json:"nodes"`
	Bytes       int64          `json:"bytes"`
	Actions     []PolicyAction `json:"actions"`
	CertifyMode string         `json:"certify_mode"`
	SolvedBy    string         `json:"solved_by"`
	Cached      bool           `json:"cached"`
	ElapsedMS   float64        `json:"elapsed_ms"`
}

// handlePolicyPublish solves (or serves from cache) an instance and
// publishes its procedure tree as a compiled route-plane artifact. The
// compile gate demands a certify.Certificate, so an uncertified tree cannot
// be published no matter which path produced it.
func (s *Server) handlePolicyPublish(w http.ResponseWriter, r *http.Request) {
	_, timeout, ok := s.openRequest(w, r, false)
	if !ok {
		return
	}
	p, err := readInstance(w, r)
	if err != nil {
		bodyError(w, err)
		return
	}
	if oerr := s.admit(p); oerr != nil {
		s.rejectOversize(w, oerr, nil)
		return
	}
	canon := canonicalize(p)
	hash, err := Hash(canon)
	if err != nil {
		s.metrics.Failures.Add(1)
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	start := time.Now()
	ent, cached, _, err := s.solveShared(r.Context(), hash, canon, "exact", approx.Spec{Raw: "off"}, timeout)
	if err != nil {
		s.solveError(w, err)
		return
	}
	if !ent.adequate {
		httpError(w, http.StatusUnprocessableEntity, "inadequate instance has no policy to publish")
		return
	}
	// Compile-after-certify: even when the cached answer already passed a
	// certify mode, publication re-runs the full tree certifier to mint the
	// capability the compiler demands. A policy can only ever be built from
	// a triple the certifier vouched for.
	cert, err := certify.Certify(ent.canon, ent.tree, ent.cost)
	if err != nil {
		s.metrics.CertifyFail.Add(1)
		s.metrics.Failures.Add(1)
		httpError(w, http.StatusInternalServerError, fmt.Sprintf("served answer failed publish certification: %v", err))
		return
	}
	art, err := policy.Compile(cert, ent.hash)
	if err != nil {
		s.metrics.Failures.Add(1)
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	art, err = s.policies.Publish(art)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	s.metrics.PolicyPublishes.Add(1)
	resp := &PolicyResponse{
		Policy:      art.ID,
		Version:     art.Version,
		K:           art.K,
		Cost:        art.Cost,
		Nodes:       len(art.Nodes),
		Bytes:       art.Bytes(),
		CertifyMode: s.certifyMode.String(),
		SolvedBy:    ent.rung,
		Cached:      cached,
		ElapsedMS:   float64(time.Since(start).Microseconds()) / 1000,
	}
	for _, a := range art.Actions {
		resp.Actions = append(resp.Actions, PolicyAction{
			Name: a.Name, Objects: a.Set.Objects(), Cost: a.Cost, Treatment: a.Treatment,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handlePolicyList(w http.ResponseWriter, _ *http.Request) {
	s.metrics.Requests.Add(1)
	writeJSON(w, http.StatusOK, map[string]any{"policies": s.policies.List()})
}

// RouteRequest drives one session. Exactly one of the two forms:
// start — Policy (and optional Version, 0 = latest) names the artifact;
// step — Cursor is the token from the previous response and Outcome is the
// result of the action it asked for (test positive / treatment cured).
type RouteRequest struct {
	Policy  string `json:"policy,omitempty"`
	Version uint32 `json:"version,omitempty"`
	Cursor  string `json:"cursor,omitempty"`
	Outcome *bool  `json:"outcome,omitempty"`
}

// RouteResponse is one step's reply. When Done is false, Action is the
// index (into the published action list) to perform next and Cursor is the
// token to replay with its outcome; when Done is true the procedure has
// treated the fault and the session is over (Action is -1, Cursor empty).
type RouteResponse struct {
	Policy     string `json:"policy"`
	Version    uint32 `json:"version"`
	Session    uint32 `json:"session"`
	Step       uint32 `json:"step"`
	Done       bool   `json:"done"`
	Action     int32  `json:"action"` // -1 when done
	ActionName string `json:"action_name,omitempty"`
	Treatment  bool   `json:"treatment,omitempty"`
	Cursor     string `json:"cursor,omitempty"`
}

// routeFault is a per-step failure with its HTTP mapping; batch members
// carry the message instead of failing the whole request.
type routeFault struct {
	status int
	msg    string
}

func (f *routeFault) Error() string { return f.msg }

var (
	faultBadCursor  = &routeFault{http.StatusBadRequest, "cursor rejected"}
	faultEvicted    = &routeFault{http.StatusGone, "policy version no longer resident; restart the session"}
	faultImpossible = &routeFault{http.StatusConflict, "reported outcome is impossible under the policy"}
)

// routeStart opens a session at an artifact's root.
func (s *Server) routeStart(art *policy.Artifact) RouteResponse {
	s.metrics.RouteSessions.Add(1)
	sid := s.routeSID.Add(1)
	resp := RouteResponse{
		Policy:  art.ID,
		Version: art.Version,
		Session: sid,
		Action:  art.Nodes[art.Root].Action,
		Cursor:  s.keyring.Sign(policy.Cursor{Artifact: art.Key(), Node: art.Root, Session: sid}),
	}
	if act, ok := art.ActionAt(art.Root); ok {
		resp.ActionName, resp.Treatment = act.Name, act.Treatment
	}
	return resp
}

// routeStep advances one session by one verified cursor + outcome.
func (s *Server) routeStep(cursor string, outcome bool) (RouteResponse, *routeFault) {
	c, err := s.keyring.Verify(cursor)
	if err != nil {
		s.metrics.RouteBadCursor.Add(1)
		return RouteResponse{}, faultBadCursor
	}
	art, ok := s.policies.ByKey(c.Artifact)
	if !ok {
		s.metrics.RouteBadCursor.Add(1)
		return RouteResponse{}, faultEvicted
	}
	next, ok := art.Step(c.Node, outcome)
	if !ok {
		s.metrics.RouteBadCursor.Add(1)
		return RouteResponse{}, faultBadCursor
	}
	if next == policy.None {
		return RouteResponse{}, faultImpossible
	}
	s.metrics.RouteSteps.Add(1)
	resp := RouteResponse{Policy: art.ID, Version: art.Version, Session: c.Session, Step: c.Step + 1}
	if next == policy.Done {
		s.metrics.RouteDone.Add(1)
		resp.Done = true
		resp.Action = -1
		return resp, nil
	}
	resp.Action = art.Nodes[next].Action
	if act, ok := art.ActionAt(next); ok {
		resp.ActionName, resp.Treatment = act.Name, act.Treatment
	}
	resp.Cursor = s.keyring.Sign(policy.Cursor{
		Artifact: c.Artifact, Node: next, Session: c.Session, Step: c.Step + 1,
	})
	return resp, nil
}

func (s *Server) handleRoute(w http.ResponseWriter, r *http.Request) {
	s.metrics.Requests.Add(1)
	var req RouteRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("parsing route request: %v", err))
		return
	}
	switch {
	case req.Cursor != "":
		if req.Policy != "" {
			httpError(w, http.StatusBadRequest, "a route request is either a start (policy) or a step (cursor), not both")
			return
		}
		if req.Outcome == nil {
			httpError(w, http.StatusBadRequest, "a step needs the outcome of the previous action")
			return
		}
		resp, fault := s.routeStep(req.Cursor, *req.Outcome)
		if fault != nil {
			httpError(w, fault.status, fault.msg)
			return
		}
		writeJSON(w, http.StatusOK, &resp)
	case req.Policy != "":
		art, ok := s.policies.Get(req.Policy, req.Version)
		if !ok {
			httpError(w, http.StatusNotFound, "no such policy resident")
			return
		}
		resp := s.routeStart(art)
		writeJSON(w, http.StatusOK, &resp)
	default:
		httpError(w, http.StatusBadRequest, "route request names neither a policy nor a cursor")
	}
}

// RouteBatchRequest steps (or starts) many sessions in one request.
// Start form: Policy (+Version) and Sessions > 0. Step form: parallel
// Cursors/Outcomes arrays. Both are bounded by Config.RouteMaxBatch.
type RouteBatchRequest struct {
	Policy   string   `json:"policy,omitempty"`
	Version  uint32   `json:"version,omitempty"`
	Sessions int      `json:"sessions,omitempty"`
	Cursors  []string `json:"cursors,omitempty"`
	Outcomes []bool   `json:"outcomes,omitempty"`
}

// RouteBatchResponse carries one slot per requested session, parallel to
// the request arrays. A failed member has its message in Errors[i] and
// zero values elsewhere; Errors is omitted entirely when every member
// succeeded.
type RouteBatchResponse struct {
	Policy   string   `json:"policy,omitempty"`
	Version  uint32   `json:"version,omitempty"`
	Sessions []uint32 `json:"sessions"`
	Steps    []uint32 `json:"steps"`
	Actions  []int32  `json:"actions"` // -1 = done (or failed)
	Done     []bool   `json:"done"`
	Cursors  []string `json:"cursors"`
	Errors   []string `json:"errors,omitempty"`
}

func (s *Server) handleRouteBatch(w http.ResponseWriter, r *http.Request) {
	s.metrics.Requests.Add(1)
	var req RouteBatchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("parsing route batch request: %v", err))
		return
	}
	starting := req.Sessions > 0 || req.Policy != ""
	stepping := len(req.Cursors) > 0 || len(req.Outcomes) > 0
	if starting == stepping {
		httpError(w, http.StatusBadRequest, "a route batch either starts sessions (policy+sessions) or steps cursors, not both")
		return
	}
	n := req.Sessions
	if stepping {
		if len(req.Cursors) != len(req.Outcomes) {
			httpError(w, http.StatusBadRequest,
				fmt.Sprintf("%d cursors with %d outcomes", len(req.Cursors), len(req.Outcomes)))
			return
		}
		n = len(req.Cursors)
	}
	if n <= 0 || n > s.cfg.RouteMaxBatch {
		s.rejectOversize(w, &oversizeError{budget: "route-batch", limit: s.cfg.RouteMaxBatch, got: n,
			msg: fmt.Sprintf("batch of %d sessions outside [1, %d]", n, s.cfg.RouteMaxBatch)}, nil)
		return
	}
	resp := &RouteBatchResponse{
		Sessions: make([]uint32, n),
		Steps:    make([]uint32, n),
		Actions:  make([]int32, n),
		Done:     make([]bool, n),
		Cursors:  make([]string, n),
	}
	if starting {
		art, ok := s.policies.Get(req.Policy, req.Version)
		if !ok {
			httpError(w, http.StatusNotFound, "no such policy resident")
			return
		}
		resp.Policy, resp.Version = art.ID, art.Version
		for i := 0; i < n; i++ {
			one := s.routeStart(art)
			resp.Sessions[i] = one.Session
			resp.Actions[i] = one.Action
			resp.Cursors[i] = one.Cursor
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}
	var failed bool
	for i := range req.Cursors {
		one, fault := s.routeStep(req.Cursors[i], req.Outcomes[i])
		if fault != nil {
			if !failed {
				failed = true
				resp.Errors = make([]string, n)
			}
			resp.Errors[i] = fault.msg
			resp.Actions[i] = -1
			continue
		}
		resp.Policy, resp.Version = one.Policy, one.Version
		resp.Sessions[i] = one.Session
		resp.Steps[i] = one.Step
		resp.Actions[i] = one.Action
		resp.Done[i] = one.Done
		resp.Cursors[i] = one.Cursor
	}
	writeJSON(w, http.StatusOK, resp)
}
