package scenario

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"prunesim/internal/pet"
)

// petPlatform returns the default platform with the given PET overrides.
func petPlatform(o pet.Params) Platform {
	return Platform{PET: &o}.WithDefaults()
}

// checkCacheBounds fails t unless the cache holds at most its caps and its
// byte count is the sum of its entries' sizes.
func checkCacheBounds(t *testing.T, e *Engine) MatrixCacheStats {
	t.Helper()
	st := e.MatrixCacheStats()
	if st.MaxEntries != maxCachedMatrices || st.MaxBytes != maxCachedMatrixBytes {
		t.Fatalf("stats report caps %d entries, %d B; want %d, %d", st.MaxEntries, st.MaxBytes, maxCachedMatrices, maxCachedMatrixBytes)
	}
	if st.Entries > st.MaxEntries || st.Bytes > st.MaxBytes {
		t.Fatalf("cache past its caps: %+v", st)
	}
	c := &e.matrices
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum int64
	for el := c.lru.Front(); el != nil; el = el.Next() {
		ent := el.Value.(*matrixEntry)
		if c.elems[ent.key] != el || ent.bytes != ent.m.RetainedBytes() {
			t.Fatalf("entry %+v out of step with the index or its matrix", ent.key)
		}
		sum += ent.bytes
	}
	if len(c.elems) != c.lru.Len() || sum != c.bytes {
		t.Fatalf("index holds %d keys, list %d entries of %d B, counter says %d B", len(c.elems), c.lru.Len(), sum, c.bytes)
	}
	return st
}

// TestMatrixCacheEntryCap: ten times the entry cap of distinct PET seeds
// leaves the cache at exactly its entry cap, under its byte cap, holding
// the most recently used seeds.
func TestMatrixCacheEntryCap(t *testing.T) {
	e := NewEngine(1)
	const n = 10 * maxCachedMatrices
	for seed := uint64(1); seed <= n; seed++ {
		if _, err := e.Lower(petPlatform(pet.Params{Samples: 5, Seed: seed}), Prune{}.WithDefaults()); err != nil {
			t.Fatal(err)
		}
	}
	if st := checkCacheBounds(t, e); st.Entries != maxCachedMatrices {
		t.Fatalf("cache holds %d entries after %d distinct seeds, want its cap %d", st.Entries, n, maxCachedMatrices)
	}
	newest := petPlatform(pet.Params{Samples: 5, Seed: n})
	key := matrixKey{profile: newest.Profile, params: newest.PETParams()}
	if _, ok := e.matrices.elems[key]; !ok {
		t.Fatal("the most recent seed was evicted")
	}
	oldest := petPlatform(pet.Params{Samples: 5, Seed: 1})
	if _, ok := e.matrices.elems[matrixKey{profile: oldest.Profile, params: oldest.PETParams()}]; ok {
		t.Fatal("the least recent seed survived 10x the cap of newer ones")
	}
}

// TestMatrixCacheByteCap: matrices large enough that the byte cap binds
// before the entry cap keep the cache under its byte cap, and a matrix
// larger than the whole cap is returned but never cached.
func TestMatrixCacheByteCap(t *testing.T) {
	e := NewEngine(1)
	var built int64
	for seed := uint64(1); built <= 2*maxCachedMatrixBytes; seed++ {
		low, err := e.Lower(petPlatform(pet.Params{BinWidth: 0.01, Samples: 20, ShapeLo: 0.3, ShapeHi: 0.3, Seed: seed}), Prune{}.WithDefaults())
		if err != nil {
			t.Fatal(err)
		}
		built += low.Matrix.RetainedBytes()
	}
	st := checkCacheBounds(t, e)
	if st.Entries >= maxCachedMatrices {
		t.Fatalf("entry cap bound first (%+v); the matrices are too small to test the byte cap", st)
	}
	before := st

	huge := petPlatform(pet.Params{BinWidth: 0.01, Samples: 2000, ShapeLo: 0.01, ShapeHi: 0.01, Seed: 1})
	low, err := e.Lower(huge, Prune{}.WithDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if size := low.Matrix.RetainedBytes(); size <= maxCachedMatrixBytes {
		t.Fatalf("oversize spec retains only %d B; pick parameters past the %d B cap", size, maxCachedMatrixBytes)
	}
	if st := checkCacheBounds(t, e); st != before {
		t.Fatalf("an oversize matrix changed the cache: %+v -> %+v", before, st)
	}
}

// TestPETShapeFloorFitsCache: the largest matrix the PET bounds admit (the
// sample cap, the bin-width floor, every cell at the shape floor) fits the
// cache's byte cap and is cached, and a shape just under the floor is
// rejected at validation.
func TestPETShapeFloorFitsCache(t *testing.T) {
	corner := petPlatform(pet.Params{BinWidth: minPETBinWidth, Samples: maxPETSamples, ShapeLo: minPETShape, ShapeHi: minPETShape})
	if err := corner.Validate(); err != nil {
		t.Fatalf("corner spec at the shape floor rejected: %v", err)
	}
	e := NewEngine(1)
	low, err := e.Lower(corner, Prune{}.WithDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if size := low.Matrix.RetainedBytes(); size > maxCachedMatrixBytes {
		t.Fatalf("corner matrix retains %d B, over the %d B cache cap", size, maxCachedMatrixBytes)
	}
	if st := checkCacheBounds(t, e); st.Entries != 1 {
		t.Fatalf("corner matrix not cached: %+v", st)
	}
	below := petPlatform(pet.Params{ShapeLo: minPETShape / 2, ShapeHi: minPETShape})
	if err := below.Validate(); err == nil || !strings.Contains(err.Error(), "platform.pet.shape_lo") {
		t.Fatalf("shape_lo under the floor: err = %v, want a platform.pet.shape_lo error", err)
	}
}

// TestLowerRepeatedSpec: a repeated spec returns the same matrix, a fresh
// machine-type slice and the pruner configuration CoreConfig gives; a
// spec differing only in its PET seed gets its own matrix.
func TestLowerRepeatedSpec(t *testing.T) {
	e := NewEngine(1)
	p := Platform{Machines: 10}.WithDefaults()
	pr := Prune{Enabled: true}.WithDefaults()
	a, err := e.Lower(p, pr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Lower(p, pr)
	if err != nil {
		t.Fatal(err)
	}
	if a.Matrix != b.Matrix {
		t.Fatal("a repeated spec built a second matrix")
	}
	if !reflect.DeepEqual(a.MachineTypes, p.MachineTypes(a.Matrix)) || &a.MachineTypes[0] == &b.MachineTypes[0] {
		t.Fatalf("machine types %v wrong or shared between calls", a.MachineTypes)
	}
	want, err := pr.CoreConfig(a.Matrix.NumTaskTypes())
	if err != nil || a.Prune != want {
		t.Fatalf("prune lowered to %+v, want %+v (%v)", a.Prune, want, err)
	}
	p.PET = &pet.Params{Seed: 7}
	c, err := e.Lower(p, pr)
	if err != nil {
		t.Fatal(err)
	}
	if c.Matrix == a.Matrix {
		t.Fatal("a different PET seed shared the cached matrix")
	}
	if _, err := e.Lower(p, Prune{Toggle: "bogus"}.WithDefaults()); err == nil {
		t.Fatal("an unknown toggle lowered")
	}
}

// TestLowerConcurrentMisses: goroutines that miss on one key at once may
// each build, but all of them get the one matrix the cache keeps.
func TestLowerConcurrentMisses(t *testing.T) {
	e := NewEngine(1)
	p := petPlatform(pet.Params{Samples: 50, Seed: 11})
	got := make([]*pet.Matrix, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			low, err := e.Lower(p, Prune{}.WithDefaults())
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = low.Matrix
		}(i)
	}
	wg.Wait()
	for i, m := range got {
		if m != got[0] {
			t.Fatalf("caller %d got a different matrix than caller 0", i)
		}
	}
	if st := checkCacheBounds(t, e); st.Entries != 1 {
		t.Fatalf("one key left %d entries", st.Entries)
	}
}
