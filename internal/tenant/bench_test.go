package tenant

import (
	"testing"
)

// BenchmarkTenantCheck measures the per-request auth hot path the
// middleware pays on every /v1 call: resolve the key, spend a token.
// It must stay ~0 allocs/op — gated in BENCH_baseline.json by the CI
// bench-regression job.
func BenchmarkTenantCheck(b *testing.B) {
	r, err := NewRegistry(Config{
		Keys: []KeyEntry{{Key: "bench-key", Name: "bench", Limits: Limits{RateQPS: 1e12}}},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tn, ok := r.Resolve("bench-key")
		if !ok {
			b.Fatal("resolve miss")
		}
		if ok, _ := tn.Allow(); !ok {
			b.Fatal("rate limited")
		}
	}
}

// BenchmarkTenantCheckAnonymous is the no-key fast path.
func BenchmarkTenantCheckAnonymous(b *testing.B) {
	r, err := NewRegistry(Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tn, _ := r.Resolve("")
		tn.Allow()
	}
}
