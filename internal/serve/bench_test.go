package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/workload"
)

// BenchmarkSolveHit serves cache hits in process: four k = 10..13 bodies,
// each solved once before the timer starts, POSTed to the /v1/solve handler
// in turn. Decode, canonicalize, hash, lookup and encode are the cost, as in
// perfbench's solve-hot workload, without the network. On a 2-vCPU Xeon
// (go1.24.0, 20000 iterations) it takes about 43 µs, 64 allocs and 12.7 KB
// per op, request construction included.
func BenchmarkSolveHit(b *testing.B) {
	s := New(Config{Logger: testLogger()})
	defer s.Close()
	h := s.Handler()
	var bodies [][]byte
	for k := 10; k <= 13; k++ {
		bodies = append(bodies, instanceJSONQuiet(workload.MedicalDiagnosis(int64(k), k)))
	}
	post := func(body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		return rec
	}
	for _, body := range bodies {
		post(body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post(bodies[i%len(bodies)])
	}
	b.StopTimer()
	if hits := s.Metrics().CacheHits.Load(); hits < int64(b.N) {
		b.Fatalf("%d cache hits over %d requests", hits, b.N)
	}
}

// BenchmarkHash hashes a canonical k = 13 instance, the cache key every
// /v1/solve request computes.
func BenchmarkHash(b *testing.B) {
	canon := Canonicalize(workload.MedicalDiagnosis(13, 13))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Hash(canon); err != nil {
			b.Fatal(err)
		}
	}
}
