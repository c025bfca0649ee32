package store_test

import (
	"fmt"
	"testing"

	"prunesim/internal/store"
	"prunesim/internal/store/conformance"
)

// BenchmarkStoreDiskGet measures the disk cache-hit path the daemon pays
// on every resubmitted sweep: a Get of an entry the store has kept since
// its Put. Gated in BENCH_baseline.json by the CI bench-regression job.
func BenchmarkStoreDiskGet(b *testing.B) {
	s, err := store.OpenDisk(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	s.Put("deadbeef", conformance.Outcome(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get("deadbeef"); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkStoreDiskGetCold measures the first hit on an entry after a
// restart: open a fresh Disk over one committed entry, then read and
// JSON-decode it in one Get.
func BenchmarkStoreDiskGetCold(b *testing.B) {
	dir := b.TempDir()
	s, err := store.OpenDisk(dir)
	if err != nil {
		b.Fatal(err)
	}
	s.Put("deadbeef", conformance.Outcome(1))
	s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := store.OpenDisk(dir)
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := s.Get("deadbeef"); !ok {
			b.Fatal("miss")
		}
		s.Close()
	}
}

// BenchmarkStoreMemoryGet is the in-memory baseline the disk numbers are
// read against.
func BenchmarkStoreMemoryGet(b *testing.B) {
	s := store.NewMemory()
	defer s.Close()
	s.Put("deadbeef", conformance.Outcome(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get("deadbeef"); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkStoreLRUPut measures steady-state Put+evict through the LRU
// wrapper over memory.
func BenchmarkStoreLRUPut(b *testing.B) {
	l := store.NewLRU(store.NewMemory(), 64)
	defer l.Close()
	o := conformance.Outcome(1)
	keys := make([]string, 128)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%03d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Put(keys[i%len(keys)], o)
	}
}
