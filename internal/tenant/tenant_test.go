package tenant

import (
	"net/http/httptest"
	"os"
	"path/filepath"
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
	t.Cleanup(r.Close)
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

func TestSlidingWindowQPS(t *testing.T) {
	clk := newFakeClock()
	r := mustRegistry(t, Config{Now: clk.now})
	tn := r.Anonymous()
	if got := tn.QPS(); got != 0 {
		t.Errorf("QPS before any rotation = %g, want 0", got)
	}
	// 30 requests over 3 completed one-second buckets: 12, 12, 6.
	for _, n := range []int{12, 12, 6} {
		for i := 0; i < n; i++ {
			tn.Allow()
		}
		tn.rotate()
	}
	if got, want := tn.QPS(), 10.0; got != want {
		t.Errorf("QPS over 3 buckets = %g, want %g", got, want)
	}
	// Rotating empty buckets decays the average; after the full window
	// passes with no traffic, QPS reaches 0 again.
	for i := 0; i < windowSeconds; i++ {
		tn.rotate()
	}
	if got := tn.QPS(); got != 0 {
		t.Errorf("QPS after an idle window = %g, want 0", got)
	}
}

func TestAccountingGoroutineRotates(t *testing.T) {
	r := mustRegistry(t, Config{AccountingInterval: time.Millisecond})
	tn := r.Anonymous()
	tn.Allow()
	deadline := time.Now().Add(2 * time.Second)
	for tn.QPS() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("accounting goroutine never rotated the window")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCloseStopsAccounting(t *testing.T) {
	r, err := NewRegistry(Config{AccountingInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	r.Close() // idempotent
	// After Close, rotations have stopped: new traffic never reaches the
	// window ring.
	tn := r.Anonymous()
	tn.Allow()
	time.Sleep(20 * time.Millisecond)
	if got := tn.QPS(); got != 0 {
		t.Errorf("QPS advanced after Close: %g", got)
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
