package pmf

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// bitwiseEqual reports exact (bit-for-bit) equality of two PMFs — the
// guarantee the in-place kernel makes relative to the immutable API.
func bitwiseEqual(a, b *PMF) bool {
	if a.origin != b.origin || a.width != b.width || len(a.p) != len(b.p) {
		return false
	}
	if math.Float64bits(a.tail) != math.Float64bits(b.tail) {
		return false
	}
	for i := range a.p {
		if math.Float64bits(a.p[i]) != math.Float64bits(b.p[i]) {
			return false
		}
	}
	return true
}

// dirtyDst returns a scratch-like destination pre-filled with garbage, to
// prove Into-operations fully overwrite their destination.
func dirtyDst(r *rand.Rand) *PMF {
	n := r.Intn(20)
	p := make([]float64, n)
	for i := range p {
		p[i] = r.Float64() * 100
	}
	return &PMF{origin: r.Intn(100) - 50, width: r.Float64() + 0.1, p: p, tail: r.Float64()}
}

func TestPropConvolveIntoBitwiseEqualsImmutable(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := func(a, b genPMF) bool {
		want := a.d.Convolve(b.d)
		intoFresh := ConvolveInto(nil, a.d, b.d)
		intoDirty := ConvolveInto(dirtyDst(r), a.d, b.d)
		return bitwiseEqual(want, intoFresh) && bitwiseEqual(want, intoDirty)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestPropConvolveMaxIntoBitwiseEqualsImmutable(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	f := func(a, b genPMF, capRaw uint8) bool {
		maxBins := 1 + int(capRaw)%16 // small caps force tail folding
		want := a.d.ConvolveMax(b.d, maxBins)
		got := ConvolveMaxInto(dirtyDst(r), a.d, b.d, maxBins)
		return bitwiseEqual(want, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestPropConditionMinVariantsBitwiseEqual(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	f := func(g genPMF, cutRaw int8) bool {
		cut := g.d.MinTime() + float64(cutRaw%24) // below, inside and past the support
		want := g.d.ConditionMin(cut)
		into := ConditionMinInto(dirtyDst(r), g.d, cut)
		inPlace := g.d.Clone().ConditionMinInPlace(cut)
		return bitwiseEqual(want, into) && bitwiseEqual(want, inPlace)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPropShiftInPlaceBitwiseEqualsShift(t *testing.T) {
	f := func(g genPMF, kRaw int8) bool {
		k := float64(kRaw)
		want := g.d.Shift(k)
		got := g.d.Clone().ShiftInPlace(k)
		return bitwiseEqual(want, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestPropCopyIntoAndDeltaInto(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	f := func(g genPMF, tRaw int8) bool {
		cp := CopyInto(dirtyDst(r), g.d)
		if !bitwiseEqual(cp, g.d) {
			return false
		}
		t := float64(tRaw) / 3
		return bitwiseEqual(DeltaInto(dirtyDst(r), t, 1), Delta(t, 1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestConvolveIntoRejectsAliasedDst(t *testing.T) {
	a := Delta(1, 1)
	b := Delta(2, 1)
	for _, dst := range []*PMF{a, b} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for aliased destination")
				}
			}()
			ConvolveInto(dst, a, b)
		}()
	}
}

func TestConditionMinIntoAliasedDstDelegatesToInPlace(t *testing.T) {
	d := New(0, 1, []float64{0.25, 0.25, 0.25, 0.25}, 0)
	want := d.ConditionMin(2)
	got := ConditionMinInto(d, d, 2)
	if got != d || !bitwiseEqual(want, got) {
		t.Fatalf("aliased ConditionMinInto = %v, want %v", got, want)
	}
}

func TestCopyIntoSelfIsNoop(t *testing.T) {
	d := New(3, 1, []float64{0.5, 0.5}, 0)
	if CopyInto(d, d) != d {
		t.Fatal("CopyInto(d, d) must return d unchanged")
	}
}

func TestScratchRecyclesBuffers(t *testing.T) {
	s := &Scratch{}
	a := New(0, 1, []float64{0.5, 0.5}, 0)
	d1 := ConvolveInto(s.Get(), a, a)
	s.Put(d1)
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	d2 := s.Get()
	if d2 != d1 {
		t.Fatal("Get after Put should return the recycled buffer")
	}
	// The recycled buffer must be fully usable as a destination.
	got := ConvolveInto(d2, a, a)
	if !bitwiseEqual(got, a.Convolve(a)) {
		t.Fatal("recycled buffer produced a wrong convolution")
	}
}

// TestResizeHeadroom pins the buffer growth policy: fresh destinations
// and jumps past twice the old capacity are sized exactly, while a
// recycled buffer that creeps past its capacity regrows with headroom, so
// a slowly rising support does not reallocate on every new maximum.
func TestResizeHeadroom(t *testing.T) {
	two := New(0, 1, []float64{0.5, 0.5}, 0)
	bins := func(n int) *PMF { // n equal bins
		m := make([]float64, n)
		for i := range m {
			m[i] = 1
		}
		return New(0, 1, m, 0)
	}
	d := ConvolveInto(nil, two, two)
	for _, c := range []struct {
		name             string
		b                *PMF
		wantLen, wantCap int
	}{
		{"fresh", nil, 3, 3},
		{"creep", bins(4), 5, 7},
		{"within headroom", bins(6), 7, 7},
		{"jump", bins(20), 21, 21},
	} {
		if c.b != nil {
			d = ConvolveInto(d, two, c.b)
			if !bitwiseEqual(d, two.Convolve(c.b)) {
				t.Fatalf("%s: regrown buffer produced a wrong convolution", c.name)
			}
		}
		if len(d.p) != c.wantLen || cap(d.p) != c.wantCap {
			t.Fatalf("%s: len/cap %d/%d, want %d/%d", c.name, len(d.p), cap(d.p), c.wantLen, c.wantCap)
		}
	}
}

func TestNilScratchIsValid(t *testing.T) {
	var s *Scratch
	if d := s.Get(); d == nil {
		t.Fatal("nil scratch Get returned nil")
	}
	s.Put(&PMF{}) // must not panic
	if s.Len() != 0 {
		t.Fatal("nil scratch Len must be 0")
	}
}

func TestScratchPoolRoundTrip(t *testing.T) {
	s := GetScratch()
	if s == nil {
		t.Fatal("GetScratch returned nil")
	}
	s.Put(&PMF{})
	PutScratch(s)
	PutScratch(nil) // must not panic
}

// TestChainedInPlaceMatchesImmutableChain mirrors the machine-queue usage:
// a deep chain of convolutions through one scratch must equal the immutable
// chain bit for bit.
func TestChainedInPlaceMatchesImmutableChain(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	pets := make([]*PMF, 8)
	for i := range pets {
		pets[i] = genPMF{}.Generate(r, 0).Interface().(genPMF).d
	}
	anchor := Delta(5, 1)

	want := anchor
	for _, p := range pets {
		want = want.Convolve(p)
	}

	s := &Scratch{}
	prev := anchor
	for _, p := range pets {
		next := ConvolveInto(s.Get(), prev, p)
		if prev != anchor {
			s.Put(prev)
		}
		prev = next
	}
	if !bitwiseEqual(want, prev) {
		t.Fatalf("chained in-place result diverged:\n got %v\nwant %v", prev, want)
	}
}
