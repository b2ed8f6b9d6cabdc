package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/instio"
	"repro/internal/workload"
)

func batchJSON(t *testing.T, ps []*core.Problem) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := instio.WriteBatch(&buf, ps, ""); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postBatch(t *testing.T, ts *httptest.Server, query string, body []byte) (*BatchResponse, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/solve/batch"+query, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, resp.StatusCode
	}
	var br BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	return &br, resp.StatusCode
}

// sameLatticeVariants returns n instances sharing base's lattice with varied
// costs and weights, plus one structurally different outlier.
func sameLatticeVariants(rng *rand.Rand, base *core.Problem, n int) []*core.Problem {
	out := []*core.Problem{base}
	for g := 1; g < n; g++ {
		q := base.Clone()
		for j := range q.Weights {
			q.Weights[j] = uint64(rng.Intn(30) + 1)
		}
		for i := range q.Actions {
			q.Actions[i].Cost = uint64(rng.Intn(40) + 1)
		}
		out = append(out, q)
	}
	return out
}

// TestBatchSolveMatchesSolo: a batch of re-priced variants and an unrelated
// outlier returns exactly the per-instance answers and certifies each one.
func TestBatchSolveMatchesSolo(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	base := workload.MedicalDiagnosis(5, 10)
	group := sameLatticeVariants(rng, base, 4)
	outlier := workload.BinaryTestingUniform(6, 9)
	batch := append(append([]*core.Problem{}, group...), outlier)

	s, ts := newTestServer(t, Config{})
	br, code := postBatch(t, ts, "?tree=1", batchJSON(t, batch))
	if code != http.StatusOK {
		t.Fatalf("batch status %d", code)
	}
	if br.Instances != len(batch) || len(br.Items) != len(batch) {
		t.Fatalf("batch echoed %d/%d items for %d instances", br.Instances, len(br.Items), len(batch))
	}
	if br.Fallbacks != 0 || br.CacheHits != 0 {
		t.Fatalf("unexpected fallbacks=%d cache_hits=%d", br.Fallbacks, br.CacheHits)
	}
	for i, p := range batch {
		it := br.Items[i]
		if it.Error != "" {
			t.Fatalf("instance %d errored: %s", i, it.Error)
		}
		if it.SolvedBy != "batch" {
			t.Fatalf("instance %d solved by %q, want batch", i, it.SolvedBy)
		}
		want, err := core.Solve(Canonicalize(p))
		if err != nil {
			t.Fatal(err)
		}
		if !it.Adequate || it.Cost == nil || *it.Cost != want.Cost {
			t.Fatalf("instance %d: batch cost %v, want %d", i, it.Cost, want.Cost)
		}
		if it.Tree == "" || it.FirstAction == "" {
			t.Fatalf("instance %d: missing tree rendering", i)
		}
	}
	if pass := s.metrics.CertifyPass.Load(); pass != int64(len(batch)) {
		t.Fatalf("certify_pass = %d, want every batch answer certified (%d)", pass, len(batch))
	}
}

// TestBatchPopulatesSharedCache: batch answers land in the same LRU that
// /v1/solve reads, under the same hash|mode key — and a second batch is pure
// cache hits.
func TestBatchPopulatesSharedCache(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	base := workload.MedicalDiagnosis(4, 8)
	batch := sameLatticeVariants(rng, base, 3)
	s, ts := newTestServer(t, Config{})
	if _, code := postBatch(t, ts, "", batchJSON(t, batch)); code != http.StatusOK {
		t.Fatalf("batch status %d", code)
	}
	if got := s.CacheLen(); got != len(batch) {
		t.Fatalf("cache holds %d entries after batch, want %d", got, len(batch))
	}
	// A permuted single solve of a member must hit the batch's entry.
	sr, code := postSolve(t, ts, "", instanceJSON(t, permuted(rng, batch[1])))
	if code != http.StatusOK {
		t.Fatal("solve after batch failed")
	}
	if !sr.Cached || sr.SolvedBy != "batch" {
		t.Fatalf("follow-up solve cached=%v solved_by=%q, want cache hit on the batch entry", sr.Cached, sr.SolvedBy)
	}
	// Re-batching is all cache hits.
	br, _ := postBatch(t, ts, "", batchJSON(t, batch))
	if br.CacheHits != len(batch) {
		t.Fatalf("re-batch: cache_hits=%d, want %d", br.CacheHits, len(batch))
	}
	for _, it := range br.Items {
		if !it.Cached {
			t.Fatalf("re-batch item not served from cache: %+v", it)
		}
	}
}

// TestBatchAdmission: oversized batches and oversized members are refused
// before any solving, and empty/garbage bodies are 400s.
func TestBatchAdmission(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	_, ts := newTestServer(t, Config{MaxBatch: 2, MaxK: 6})
	base := workload.MedicalDiagnosis(3, 6)
	three := sameLatticeVariants(rng, base, 3)
	if _, code := postBatch(t, ts, "", batchJSON(t, three)); code != http.StatusUnprocessableEntity {
		t.Fatalf("3-instance batch against MaxBatch=2: status %v, want 422", code)
	}
	big := []*core.Problem{base, workload.MedicalDiagnosis(8, 8)}
	if _, code := postBatch(t, ts, "", batchJSON(t, big)); code != http.StatusUnprocessableEntity {
		t.Fatalf("over-K member: status %v, want 422", code)
	}
	if _, code := postBatch(t, ts, "", []byte(`{"instances":[]}`)); code != http.StatusBadRequest {
		t.Fatalf("empty batch: status %v, want 400", code)
	}
	if _, code := postBatch(t, ts, "", []byte(`{nope`)); code != http.StatusBadRequest {
		t.Fatalf("garbage body: status %v, want 400", code)
	}
}

// TestBatchStatsExposed: /v1/stats carries the batch counters and the
// stripe-pool gauge, including a dedicated StripeWorkers pool size.
func TestBatchStatsExposed(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	base := workload.MedicalDiagnosis(4, 7)
	batch := sameLatticeVariants(rng, base, 3)
	s, ts := newTestServer(t, Config{StripeWorkers: 3})
	if _, code := postBatch(t, ts, "", batchJSON(t, batch)); code != http.StatusOK {
		t.Fatal("batch failed")
	}
	stats := s.statsPayload()
	if got := stats["stripe_workers"]; got != 3 {
		t.Fatalf("stripe_workers = %v, want 3", got)
	}
	if got := stats["batch_requests"]; got != int64(1) {
		t.Fatalf("batch_requests = %v, want 1", got)
	}
}

// TestBatchInadequateMember: an inadequate instance inside a batch is
// reported inadequate (no cost), while its groupmates still answer.
func TestBatchInadequateMember(t *testing.T) {
	adequate := workload.MedicalDiagnosis(4, 7)
	inadequate := &core.Problem{
		K:       3,
		Weights: []uint64{1, 2, 3},
		Actions: []core.Action{
			{Set: core.SetOf(0), Cost: 1, Treatment: true},
			{Set: core.SetOf(0, 1, 2), Cost: 2, Treatment: false},
		},
	}
	_, ts := newTestServer(t, Config{})
	br, code := postBatch(t, ts, "", batchJSON(t, []*core.Problem{adequate, inadequate}))
	if code != http.StatusOK {
		t.Fatalf("batch status %d", code)
	}
	if !br.Items[0].Adequate || br.Items[0].Cost == nil {
		t.Fatal("adequate member lost its answer")
	}
	if br.Items[1].Adequate || br.Items[1].Cost != nil || br.Items[1].Error != "" {
		t.Fatalf("inadequate member misreported: %+v", br.Items[1])
	}
}

// TestBatchCertifyFallback: the chaos ResultFault reaches batch answers as
// rung "batch". The first member's answer is corrupted, refused by certify
// and answered by the per-instance fallback with core.Solve's cost; its
// groupmates keep their batch answers, and the fallback's entry is cached,
// so a follow-up /v1/solve of that member hits it.
func TestBatchCertifyFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	batch := sameLatticeVariants(rng, workload.MedicalDiagnosis(4, 7), 3)
	s, ts := newTestServer(t, Config{ResultFault: chaos.CorruptFirst("batch", 1)})
	br, code := postBatch(t, ts, "", batchJSON(t, batch))
	if code != http.StatusOK {
		t.Fatalf("batch status %d", code)
	}
	if br.Fallbacks != 1 {
		t.Fatalf("fallbacks = %d, want 1", br.Fallbacks)
	}
	stats := s.statsPayload()
	if stats["batch_fallback"] != int64(1) || stats["certify_fail"] != int64(1) {
		t.Fatalf("batch_fallback = %v, certify_fail = %v, want 1 and 1", stats["batch_fallback"], stats["certify_fail"])
	}
	costs := make([]uint64, len(batch))
	for i, p := range batch {
		want, err := core.Solve(Canonicalize(p))
		if err != nil {
			t.Fatal(err)
		}
		costs[i] = want.Cost
		wantBy := "batch"
		if i == 0 {
			wantBy = "exact"
		}
		it := br.Items[i]
		if it.Error != "" || it.SolvedBy != wantBy || it.Cost == nil || *it.Cost != want.Cost {
			t.Fatalf("instance %d: solved_by %q cost %v error %q, want %s with cost %d", i, it.SolvedBy, it.Cost, it.Error, wantBy, want.Cost)
		}
	}
	sr, code := postSolve(t, ts, "", instanceJSON(t, batch[0]))
	if code != http.StatusOK {
		t.Fatalf("follow-up solve status %d", code)
	}
	if !sr.Cached || sr.Cost == nil || *sr.Cost != costs[0] {
		t.Fatalf("follow-up solve cached=%v cost %v, want a cache hit with cost %d", sr.Cached, sr.Cost, costs[0])
	}
}
