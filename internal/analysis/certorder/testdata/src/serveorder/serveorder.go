// Seeded true positives and near-miss negatives for the certorder analyzer,
// shaped like the repo's serving layer.
package serveorder

import (
	"errors"

	"certify"
)

type entry struct {
	key  string
	cost uint64
}

type lruCache struct{ m map[string]*entry }

// add is the cache's own method: below the boundary, exempt.
func (c *lruCache) add(e *entry) { c.m[e.key] = e }

// SolveResponse is the wire answer.
type SolveResponse struct{ Cost uint64 }

func writeJSON(v any) {}

type server struct {
	cache *lruCache
	mode  certify.Mode
}

// True positive: insert first, certify after — the PR 5 incident shape.
func (s *server) badOrder(e *entry) {
	s.cache.add(e) // want "cache insert is not dominated by a certify call"
	_ = certify.Check(e.cost)
}

// True positive: a response written with no certify anywhere on the path.
func (s *server) badResponse(e *entry) {
	writeJSON(&SolveResponse{Cost: e.cost}) // want "written before any certify"
}

// True positive: certify runs on only one branch; the insert below the join
// is reachable uncertified.
func (s *server) halfCertified(e *entry, fast bool) {
	if fast {
		if !certify.Check(e.cost).OK() {
			return
		}
	}
	s.cache.add(e) // want "cache insert is not dominated by a certify call"
}

// True positive: certify inside a loop body does not dominate code after the
// loop — the body may run zero times.
func (s *server) loopCertified(es []*entry, e *entry) {
	for _, x := range es {
		_ = certify.Check(x.cost)
	}
	s.cache.add(e) // want "cache insert is not dominated by a certify call"
}

// True positive: ParseMode is a parsing helper, not a certifying call.
func (s *server) parseIsNotCertify(e *entry, name string) {
	s.mode = certify.ParseMode(name)
	s.cache.add(e) // want "cache insert is not dominated by a certify call"
}

// Negative: the canonical shape — certify dominates both sinks.
func (s *server) goodOrder(e *entry) {
	if !certify.Check(e.cost).OK() {
		return
	}
	s.cache.add(e)
	writeJSON(&SolveResponse{Cost: e.cost})
}

// Negative: both branches of the if certify, so the join is certified.
func (s *server) bothBranches(e *entry, audit bool) {
	if audit {
		_ = certify.VerifyEntry(e.cost, e.key)
	} else {
		_ = certify.Check(e.cost)
	}
	s.cache.add(e)
}

// True positive: referencing certify.ModeOff is not certification — there
// is no opt-out annotation.
func (s *server) offMode(e *entry) {
	if s.mode == certify.ModeOff {
		s.cache.add(e) // want "cache insert is not dominated by a certify call"
	}
}

// Near-miss negative: certification through a package-local helper; the
// fixpoint marks certifyEntry as certifying.
func (s *server) viaHelper(e *entry) error {
	if err := s.certifyEntry(e); err != nil {
		return err
	}
	s.cache.add(e)
	return nil
}

func (s *server) certifyEntry(e *entry) error {
	if !certify.VerifyEntry(e.cost, e.key).OK() {
		return errors.New("certification refused")
	}
	return nil
}

// Near-miss negative: the real runSolve shape — the certify call lives in an
// immediately-invoked literal, which is straight-line code.
func (s *server) viaClosure(e *entry) {
	func() {
		if !certify.Check(e.cost).OK() {
			e = nil
		}
	}()
	if e != nil {
		s.cache.add(e)
	}
}

// Near-miss negative: the solveShared shape — the response is written after
// launching a goroutine that certifies (and itself inserts post-certify).
func (s *server) viaGoroutine(e *entry, done chan struct{}) *SolveResponse {
	go s.runSolve(e, done)
	<-done
	resp := &SolveResponse{Cost: e.cost}
	writeJSON(resp)
	return resp
}

func (s *server) runSolve(e *entry, done chan struct{}) {
	defer close(done)
	func() {
		if !certify.Check(e.cost).OK() {
			e = nil
		}
	}()
	if e != nil {
		s.cache.add(e)
	}
}

// Approx-path cases: gap certification follows the same rule as every
// other path; a function's name plays no part.

// True positive: a response written under a ModeOff check, with no certify
// call anywhere on the path.
func (s *server) offModeResponse(e *entry) {
	if s.mode == certify.ModeOff {
		writeJSON(&SolveResponse{Cost: e.cost}) // want "written before any certify"
	}
}

// True positive: insert before the gap certification — the same incident
// shape as badOrder, on the approx path.
func (s *server) solveApproxBadOrder(e *entry) {
	s.cache.add(e) // want "cache insert is not dominated by a certify call"
	_ = certify.CertifyGap(e.cost, 1500, 10)
}

// True positive: deriving a lower bound is arithmetic, not certification.
func (s *server) approxBoundIsNotCertify(e *entry) {
	e.cost = certify.LowerBound(4)
	s.cache.add(e) // want "cache insert is not dominated by a certify call"
}

// Negative: the real solveApproxAttempt shape — gap certification (or the
// inadequacy witness check) dominates the insert and the response write.
func (s *server) solveApproxGoodOrder(e *entry, adequate bool) {
	if adequate {
		if !certify.CertifyGap(e.cost, 1500, 10).OK() {
			return
		}
	} else {
		if !certify.CheckInadequate(3).OK() {
			return
		}
	}
	s.cache.add(e)
	writeJSON(&SolveResponse{Cost: e.cost})
}

// Negative: gap certification through a package-local helper; the fixpoint
// marks certifyApprox as certifying.
func (s *server) approxViaHelper(e *entry) error {
	if err := s.certifyApprox(e); err != nil {
		return err
	}
	s.cache.add(e)
	return nil
}

func (s *server) certifyApprox(e *entry) error {
	if !certify.CertifyGap(e.cost, 2000, 5).OK() {
		return errors.New("gap claim refused")
	}
	return nil
}
