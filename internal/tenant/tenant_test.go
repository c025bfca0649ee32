package tenant

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
)

// fakeClock is a manual clock for deterministic bucket tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }
func mustRegistry(t *testing.T, cfg Config) *Registry {
	t.Helper()
	r, err := NewRegistry(cfg)
	if err != nil {
		t.Fatalf("NewRegistry: %v", err)
	}
	return r
}

func TestResolve(t *testing.T) {
	r := mustRegistry(t, Config{
		Keys: []KeyEntry{{Key: "secret-a", Name: "team-a"}},
	})
	if tn, ok := r.Resolve(""); !ok || tn.Name() != "anonymous" {
		t.Errorf("Resolve(\"\") = %v, %v; want the anonymous tenant", tn, ok)
	}
	if tn, ok := r.Resolve("secret-a"); !ok || tn.Name() != "team-a" {
		t.Errorf("Resolve(known) = %v, %v; want team-a", tn, ok)
	}
	if tn, ok := r.Resolve("nope"); ok || tn != nil {
		t.Errorf("Resolve(unknown) = %v, %v; want nil, false", tn, ok)
	}
}

func TestRegistryValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"empty key", Config{Keys: []KeyEntry{{Key: ""}}}},
		{"duplicate key", Config{Keys: []KeyEntry{{Key: "k"}, {Key: "k"}}}},
		{"negative qps", Config{Keys: []KeyEntry{{Key: "k", Limits: Limits{RateQPS: -1}}}}},
		{"negative inflight", Config{Anonymous: Limits{MaxInFlight: -2}}},
	}
	for _, tc := range cases {
		if _, err := NewRegistry(tc.cfg); err == nil {
			t.Errorf("%s: NewRegistry accepted an invalid config", tc.name)
		}
	}
}

func TestTokenBucket(t *testing.T) {
	clk := newFakeClock()
	r := mustRegistry(t, Config{
		Keys: []KeyEntry{{Key: "k", Name: "t", Limits: Limits{RateQPS: 2, Burst: 3}}},
		Now:  clk.now,
	})
	tn, _ := r.Resolve("k")
	// The bucket starts full: burst requests pass...
	for i := 0; i < 3; i++ {
		if ok, _ := tn.Allow(); !ok {
			t.Fatalf("request %d within burst was refused", i)
		}
	}
	// ...then the next is refused with a meaningful Retry-After.
	ok, retry := tn.Allow()
	if ok {
		t.Fatal("request beyond burst was allowed")
	}
	if retry <= 0 || retry > time.Second {
		t.Errorf("Retry-After = %v, want within (0, 1s] at 2 QPS refill", retry)
	}
	if got := tn.RateLimited(); got != 1 {
		t.Errorf("RateLimited = %d, want 1", got)
	}
	// Refill: after 1s at 2 QPS, exactly 2 tokens accrued.
	clk.advance(time.Second)
	for i := 0; i < 2; i++ {
		if ok, _ := tn.Allow(); !ok {
			t.Fatalf("request %d after refill was refused", i)
		}
	}
	if ok, _ := tn.Allow(); ok {
		t.Error("third request after a 2-token refill was allowed")
	}
	// The bucket caps at burst even after a long idle stretch.
	clk.advance(time.Hour)
	allowed := 0
	for i := 0; i < 10; i++ {
		if ok, _ := tn.Allow(); ok {
			allowed++
		}
	}
	if allowed != 3 {
		t.Errorf("after a long idle, %d requests passed; want burst=3", allowed)
	}
}

func TestUnlimitedTenant(t *testing.T) {
	r := mustRegistry(t, Config{})
	tn := r.Anonymous()
	for i := 0; i < 1000; i++ {
		if ok, _ := tn.Allow(); !ok {
			t.Fatal("unlimited tenant was rate limited")
		}
	}
	for i := 0; i < 100; i++ {
		if !tn.TryBeginJob() {
			t.Fatal("unlimited tenant hit an in-flight cap")
		}
	}
}

func TestInFlightCap(t *testing.T) {
	r := mustRegistry(t, Config{
		Keys: []KeyEntry{{Key: "k", Limits: Limits{MaxInFlight: 2}}},
	})
	tn, _ := r.Resolve("k")
	if !tn.TryBeginJob() || !tn.TryBeginJob() {
		t.Fatal("claims within the cap were refused")
	}
	if tn.TryBeginJob() {
		t.Fatal("claim beyond the cap succeeded")
	}
	if got := tn.InFlightRejected(); got != 1 {
		t.Errorf("InFlightRejected = %d, want 1", got)
	}
	if got := tn.InFlight(); got != 2 {
		t.Errorf("InFlight = %d, want 2", got)
	}
	tn.EndJob()
	if !tn.TryBeginJob() {
		t.Error("claim after a release was refused")
	}
	// EndJob never drives the gauge negative, even if misused.
	for i := 0; i < 10; i++ {
		tn.EndJob()
	}
	if got := tn.InFlight(); got != 0 {
		t.Errorf("InFlight after over-release = %d, want 0", got)
	}
}

// TestTinyRateRetryAfter: a rate so small that the wait overflows a
// time.Duration still reports a positive Retry-After.
func TestTinyRateRetryAfter(t *testing.T) {
	r := mustRegistry(t, Config{Anonymous: Limits{RateQPS: 1e-12, Burst: 1}})
	tn := r.Anonymous()
	if ok, _ := tn.Allow(); !ok {
		t.Fatal("first request within burst was refused")
	}
	ok, retry := tn.Allow()
	if ok {
		t.Fatal("second request was allowed")
	}
	if retry <= 0 {
		t.Errorf("Retry-After = %v, want positive", retry)
	}
}

// allowN spends n requests from tn.
func allowN(tn *Tenant, n int) {
	for range n {
		tn.Allow()
	}
}

func TestSlidingWindowQPS(t *testing.T) {
	clk := newFakeClock()
	r := mustRegistry(t, Config{Now: clk.now})
	tn := r.Anonymous()
	// 30 requests over 3 seconds polled once a second: 12, 12, 6.
	allowN(tn, 12)
	if got := tn.QPS(); got != 0 {
		t.Errorf("QPS before any time passed = %g, want 0", got)
	}
	for _, n := range []int{12, 6} {
		clk.advance(time.Second)
		tn.QPS()
		allowN(tn, n)
	}
	clk.advance(time.Second)
	if got, want := tn.QPS(), 10.0; got != want {
		t.Errorf("QPS over 3 seconds = %g, want %g", got, want)
	}
	// Idle and read ten times a second, the window stays windowSeconds
	// long: at 12 s it holds the last second's 6 requests, at 13 s none.
	for range 9 * 10 {
		clk.advance(100 * time.Millisecond)
		tn.QPS()
	}
	if got, want := tn.QPS(), 0.6; got != want {
		t.Errorf("QPS 9 s after traffic stopped = %g, want %g", got, want)
	}
	for range 10 {
		clk.advance(100 * time.Millisecond)
		tn.QPS()
	}
	if got := tn.QPS(); got != 0 {
		t.Errorf("QPS after an idle window = %g, want 0", got)
	}
}

// TestQPSFreshTenant: a tenant that has served nothing reads 0, however
// long it has existed.
func TestQPSFreshTenant(t *testing.T) {
	clk := newFakeClock()
	r := mustRegistry(t, Config{Now: clk.now})
	tn := r.Anonymous()
	for _, d := range []time.Duration{0, 500 * time.Millisecond, time.Second, time.Hour} {
		clk.advance(d)
		if got := tn.QPS(); got != 0 {
			t.Errorf("fresh tenant after %v: QPS = %g, want 0", d, got)
		}
	}
}

// TestQPSSteadyPolls: 1 Hz polls of a steady stream read its exact rate,
// before the window fills and after it wraps the sample ring.
func TestQPSSteadyPolls(t *testing.T) {
	clk := newFakeClock()
	r := mustRegistry(t, Config{Now: clk.now})
	tn := r.Anonymous()
	for sec := 1; sec <= 3*windowSeconds; sec++ {
		allowN(tn, 7)
		clk.advance(time.Second)
		if got := tn.QPS(); got != 7 {
			t.Fatalf("poll at %d s: QPS = %g, want 7", sec, got)
		}
	}
}

// TestQPSGapLongerThanWindow: a read after an unpolled gap longer than the
// window averages over the whole gap, from the last sample to now.
func TestQPSGapLongerThanWindow(t *testing.T) {
	clk := newFakeClock()
	r := mustRegistry(t, Config{Now: clk.now})
	tn := r.Anonymous()
	for range 12 {
		allowN(tn, 7)
		clk.advance(time.Second)
		tn.QPS()
	}
	// 60 requests in the gap's first 5 s, then 10 idle seconds: a strict
	// trailing 10 s window would read 0, the documented window 60/15.
	allowN(tn, 60)
	clk.advance(15 * time.Second)
	if got, want := tn.QPS(), 4.0; got != want {
		t.Errorf("QPS after a 15 s gap = %g, want %g", got, want)
	}
	// The gap leaves the window once a sample windowSeconds old follows it.
	for range windowSeconds {
		clk.advance(time.Second)
		tn.QPS()
	}
	if got := tn.QPS(); got != 0 {
		t.Errorf("QPS a window after the gap = %g, want 0", got)
	}
}

// TestRegistryStartsNoGoroutine: QPS is sampled when read, so a registry
// starts no goroutine of its own.
func TestRegistryStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	mustRegistry(t, Config{Keys: []KeyEntry{{Key: "k"}}})
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("NewRegistry started %d goroutines", after-before)
	}
}

// TestConcurrentAllowAndSnapshots races request accounting against QPS
// sampling; run it under -race.
func TestConcurrentAllowAndSnapshots(t *testing.T) {
	r := mustRegistry(t, Config{
		Anonymous: Limits{RateQPS: 1e9},
		Keys:      []KeyEntry{{Key: "k", Name: "keyed"}},
	})
	const workers, perWorker = 4, 500
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(2)
		go func() {
			defer wg.Done()
			key := ""
			if w%2 == 1 {
				key = "k"
			}
			tn, _ := r.Resolve(key)
			allowN(tn, perWorker)
		}()
		go func() {
			defer wg.Done()
			for range perWorker / 10 {
				for _, s := range r.Snapshots() {
					if s.QPS < 0 {
						t.Errorf("%s: negative QPS %g", s.Name, s.QPS)
					}
				}
			}
		}()
	}
	wg.Wait()
	var total int64
	for _, s := range r.Snapshots() {
		total += s.Requests
	}
	if total != workers*perWorker {
		t.Errorf("requests counted = %d, want %d", total, workers*perWorker)
	}
}

func TestSnapshots(t *testing.T) {
	r := mustRegistry(t, Config{
		Keys: []KeyEntry{
			{Key: "kb", Name: "bravo", Limits: Limits{MaxInFlight: 1}},
			{Key: "ka", Name: "alpha"},
		},
	})
	tnB, _ := r.Resolve("kb")
	tnB.Allow()
	tnB.TryBeginJob()
	tnB.TryBeginJob() // rejected
	snaps := r.Snapshots()
	if len(snaps) != 3 {
		t.Fatalf("Snapshots len = %d, want 3", len(snaps))
	}
	for i, want := range []string{"alpha", "anonymous", "bravo"} {
		if snaps[i].Name != want {
			t.Errorf("Snapshots[%d].Name = %q, want %q (sorted)", i, snaps[i].Name, want)
		}
	}
	bravo := snaps[2]
	if bravo.Requests != 1 || bravo.InFlight != 1 || bravo.Rejected != 1 {
		t.Errorf("bravo snapshot = %+v; want requests=1 in_flight=1 inflight_rejected=1", bravo)
	}
}

func TestLoadKeyfile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "keys.json")
	body := `{
	  "anonymous": {"rate_qps": 5, "max_inflight": 2},
	  "keys": [{"key": "s3cr3t", "name": "team-a", "rate_qps": 100, "burst": 200, "max_inflight": 8}]
	}`
	if err := os.WriteFile(path, []byte(body), 0o600); err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadKeyfile(path)
	if err != nil {
		t.Fatalf("LoadKeyfile: %v", err)
	}
	if cfg.Anonymous.RateQPS != 5 || cfg.Anonymous.MaxInFlight != 2 {
		t.Errorf("anonymous limits = %+v", cfg.Anonymous)
	}
	if len(cfg.Keys) != 1 || cfg.Keys[0].Name != "team-a" || cfg.Keys[0].Burst != 200 {
		t.Errorf("keys = %+v", cfg.Keys)
	}
	if _, err := LoadKeyfile(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("LoadKeyfile of a missing file succeeded")
	}
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte("{"), 0o600)
	if _, err := LoadKeyfile(bad); err == nil {
		t.Error("LoadKeyfile of invalid JSON succeeded")
	}
}

func TestKeyExtraction(t *testing.T) {
	cases := []struct {
		header, value, want string
	}{
		{"Authorization", "Bearer abc", "abc"},
		{"Authorization", "abc", "abc"},
		{"Authorization", "Bearer  spaced ", "spaced"},
		{"X-API-Key", "xyz", "xyz"},
		{"", "", ""},
	}
	for _, tc := range cases {
		req := httptest.NewRequest("GET", "/v1/jobs", nil)
		if tc.header != "" {
			req.Header.Set(tc.header, tc.value)
		}
		if got := Key(req); got != tc.want {
			t.Errorf("Key with %s=%q = %q, want %q", tc.header, tc.value, got, tc.want)
		}
	}
	// Authorization wins over X-API-Key when both are present.
	req := httptest.NewRequest("GET", "/v1/jobs", nil)
	req.Header.Set("Authorization", "Bearer a")
	req.Header.Set("X-API-Key", "b")
	if got := Key(req); got != "a" {
		t.Errorf("Key with both headers = %q, want the Authorization token", got)
	}
}

// TestKeyAllocatesNothing wants an anonymous request's key lookup, which
// every /v1 request makes, to allocate nothing.
func TestKeyAllocatesNothing(t *testing.T) {
	req := httptest.NewRequest("GET", "/v1/jobs", nil)
	if n := testing.AllocsPerRun(100, func() { Key(req) }); n != 0 {
		t.Errorf("Key on a keyless request: %v allocs, want 0", n)
	}
}

func TestRedact(t *testing.T) {
	if got := redact("ab"); got != "key-****" {
		t.Errorf("redact(short) = %q", got)
	}
	if got := redact("supersecret"); got != "key-…cret" {
		t.Errorf("redact(long) = %q", got)
	}
}
