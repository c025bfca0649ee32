package workload

import "testing"

// BenchmarkWorkloadGenerate covers the materializing path: a Source drained
// into a slice, without recycling.
func BenchmarkWorkloadGenerate(b *testing.B) {
	cfg := DefaultConfig(15000)
	model, err := NewArrivalModel(cfg, testMatrix.NumTaskTypes())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Trial = i
		tasks := GenerateWith(testMatrix, model, cfg)
		if len(tasks) == 0 {
			b.Fatal("empty workload")
		}
	}
}

// BenchmarkWorkloadStream covers the streaming path with immediate
// recycling — the footprint-bounded access pattern.
func BenchmarkWorkloadStream(b *testing.B) {
	cfg := DefaultConfig(15000)
	model, err := NewArrivalModel(cfg, testMatrix.NumTaskTypes())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Trial = i
		src := NewSourceWith(testMatrix, model, cfg)
		n := 0
		for {
			tk, ok := src.Next()
			if !ok {
				break
			}
			n++
			src.Recycle(tk)
		}
		if n == 0 {
			b.Fatal("empty workload")
		}
	}
}
