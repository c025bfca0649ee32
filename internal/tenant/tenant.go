// Package tenant is the multi-tenancy layer of the serving daemon:
// API-key identity, per-key token-bucket rate limiting, sliding-window
// QPS accounting and per-key in-flight job caps. It exists so one hot
// client cannot fill the bounded job queue (or the CPU) for everyone —
// the fairness half of the "millions of users" architecture, sitting in
// front of every /v1 endpoint.
//
// Identity is an API key presented as `Authorization: Bearer <key>` or
// `X-API-Key: <key>`. Keys (and their limits) come from a JSON keyfile;
// requests without a key fall to the default anonymous tenant, whose
// limits the operator sets by flag. An unknown key is rejected outright —
// it is a typo or a revoked credential, not an anonymous caller.
//
// The enforcement split: the token bucket answers "may this request be
// served now" (429 rate_limited with Retry-After when not); the in-flight
// cap answers "may this tenant occupy another queue+worker slot" (429
// inflight_limit). Both are distinct from the queue's own global
// backpressure (429 queue_full), so clients and dashboards can tell which
// limit fired.
package tenant

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// windowSeconds is the QPS accounting horizon (see Tenant.QPS).
const windowSeconds = 10

// Limits bounds one tenant. The zero value is unlimited.
type Limits struct {
	// RateQPS is the sustained request rate the token bucket refills at;
	// 0 means unlimited (no bucket).
	RateQPS float64 `json:"rate_qps,omitempty"`
	// Burst is the bucket depth — how far above the sustained rate a
	// tenant may spike; 0 defaults to max(1, ceil(RateQPS)).
	Burst float64 `json:"burst,omitempty"`
	// MaxInFlight caps the tenant's concurrently live jobs (queued +
	// running); 0 means unlimited.
	MaxInFlight int `json:"max_inflight,omitempty"`
}

// normalize fills Burst's default and rejects nonsense.
func (l Limits) normalize() (Limits, error) {
	if l.RateQPS < 0 || math.IsNaN(l.RateQPS) || math.IsInf(l.RateQPS, 0) {
		return l, fmt.Errorf("rate_qps must be a finite non-negative number, got %v", l.RateQPS)
	}
	if l.Burst < 0 || math.IsNaN(l.Burst) || math.IsInf(l.Burst, 0) {
		return l, fmt.Errorf("burst must be a finite non-negative number, got %v", l.Burst)
	}
	if l.MaxInFlight < 0 {
		return l, fmt.Errorf("max_inflight must be non-negative, got %d", l.MaxInFlight)
	}
	if l.RateQPS > 0 && l.Burst == 0 {
		l.Burst = math.Max(1, math.Ceil(l.RateQPS))
	}
	return l, nil
}

// KeyEntry is one keyfile row: a credential, a display name and its
// limits.
type KeyEntry struct {
	// Key is the credential clients present. Required, and unique across
	// the keyfile.
	Key string `json:"key"`
	// Name labels the tenant in metrics and health output; defaults to a
	// redacted form of the key.
	Name string `json:"name,omitempty"`
	Limits
}

// Config builds a Registry.
type Config struct {
	// Anonymous limits requests that present no API key. The zero value
	// is unlimited (every pre-tenancy deployment keeps working).
	Anonymous Limits `json:"anonymous"`
	// Keys are the named tenants.
	Keys []KeyEntry `json:"keys"`
	// Now overrides the clock in tests.
	Now func() time.Time `json:"-"`
}

// LoadKeyfile reads a Config from a JSON keyfile:
//
//	{
//	  "anonymous": {"rate_qps": 50, "max_inflight": 4},
//	  "keys": [
//	    {"key": "team-a-secret", "name": "team-a",
//	     "rate_qps": 200, "burst": 400, "max_inflight": 32}
//	  ]
//	}
func LoadKeyfile(path string) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, fmt.Errorf("tenant: keyfile: %w", err)
	}
	var cfg Config
	if err := json.Unmarshal(data, &cfg); err != nil {
		return Config{}, fmt.Errorf("tenant: keyfile %s: %w", path, err)
	}
	return cfg, nil
}

// Key extracts the API key a request presents: the Bearer token of the
// Authorization header, or the X-API-Key header. Empty means anonymous.
// Both lookups use the canonical header spelling, which Header.Get finds
// without building a canonical copy of the name.
func Key(r *http.Request) string {
	if auth := r.Header.Get("Authorization"); auth != "" {
		if k, ok := strings.CutPrefix(auth, "Bearer "); ok {
			return strings.TrimSpace(k)
		}
		return strings.TrimSpace(auth)
	}
	return strings.TrimSpace(r.Header.Get("X-Api-Key"))
}

// Registry resolves API keys to tenants. Build with NewRegistry; it
// starts no goroutine and needs no Close.
type Registry struct {
	byKey   map[string]*Tenant
	anon    *Tenant
	tenants []*Tenant // anon first, then keyfile order
}

// NewRegistry validates the config and builds every tenant.
func NewRegistry(cfg Config) (*Registry, error) {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	anonLimits, err := cfg.Anonymous.normalize()
	if err != nil {
		return nil, fmt.Errorf("tenant: anonymous: %w", err)
	}
	r := &Registry{byKey: make(map[string]*Tenant, len(cfg.Keys))}
	r.anon = newTenant("anonymous", anonLimits, cfg.Now)
	r.tenants = append(r.tenants, r.anon)
	for i, e := range cfg.Keys {
		if e.Key == "" {
			return nil, fmt.Errorf("tenant: keys[%d]: key must not be empty", i)
		}
		if _, dup := r.byKey[e.Key]; dup {
			return nil, fmt.Errorf("tenant: keys[%d]: duplicate key", i)
		}
		name := e.Name
		if name == "" {
			name = redact(e.Key)
		}
		limits, err := e.Limits.normalize()
		if err != nil {
			return nil, fmt.Errorf("tenant: keys[%d] (%s): %w", i, name, err)
		}
		t := newTenant(name, limits, cfg.Now)
		r.byKey[e.Key] = t
		r.tenants = append(r.tenants, t)
	}
	return r, nil
}

// redact turns a credential into a loggable label.
func redact(key string) string {
	if len(key) <= 4 {
		return "key-****"
	}
	return "key-…" + key[len(key)-4:]
}

// Resolve maps an API key to its tenant: the empty key resolves to the
// anonymous tenant, a known key to its tenant, an unknown key to (nil,
// false) — reject such requests with 401.
func (r *Registry) Resolve(key string) (*Tenant, bool) {
	if key == "" {
		return r.anon, true
	}
	t, ok := r.byKey[key]
	return t, ok
}

// Anonymous returns the default tenant.
func (r *Registry) Anonymous() *Tenant { return r.anon }

// Snapshot is one tenant's accounting view (healthz / dashboards).
type Snapshot struct {
	Name        string  `json:"name"`
	QPS         float64 `json:"qps"`
	InFlight    int     `json:"in_flight"`
	Requests    int64   `json:"requests"`
	RateLimited int64   `json:"rate_limited"`
	Rejected    int64   `json:"inflight_rejected"`
}

// Snapshots reports every tenant sorted by name (anonymous included).
func (r *Registry) Snapshots() []Snapshot {
	out := make([]Snapshot, 0, len(r.tenants))
	for _, t := range r.tenants {
		out = append(out, Snapshot{
			Name:        t.name,
			QPS:         t.QPS(),
			InFlight:    t.InFlight(),
			Requests:    t.requests.Load(),
			RateLimited: t.rateLimited.Load(),
			Rejected:    t.inflightRejected.Load(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Tenant is one client identity: its token bucket, sliding QPS window and
// in-flight job count. All methods are safe for concurrent use; the hot
// path (Allow) is one mutex acquisition and allocation-free.
type Tenant struct {
	name   string
	limits Limits
	now    func() time.Time

	mu         sync.Mutex
	tokens     float64
	lastRefill time.Time
	inflight   int

	// QPS samples of the requests counter, taken by QPS at most once a
	// second; newest indexes the latest. windowSeconds+1 slots span the
	// window at a 1 Hz read rate.
	sampleMu sync.Mutex
	samples  [windowSeconds + 1]sample
	newest   int

	requests         atomic.Int64
	rateLimited      atomic.Int64
	inflightRejected atomic.Int64
}

// sample is the requests counter n as read at time at.
type sample struct {
	at time.Time
	n  int64
}

// newTenant builds a tenant with a full bucket and every QPS sample at
// (creation time, 0).
func newTenant(name string, limits Limits, now func() time.Time) *Tenant {
	t := &Tenant{
		name:       name,
		limits:     limits,
		now:        now,
		tokens:     limits.Burst,
		lastRefill: now(),
	}
	for i := range t.samples {
		t.samples[i] = sample{at: t.lastRefill}
	}
	return t
}

// Name returns the tenant's display name.
func (t *Tenant) Name() string { return t.name }

// Limits returns the tenant's configured limits.
func (t *Tenant) Limits() Limits { return t.limits }

// Allow spends one token if the bucket has it, reporting whether the
// request may proceed; when it may not, retryAfter says how long until a
// token accrues. Every call (allowed or not) counts into the request
// counter that QPS samples.
func (t *Tenant) Allow() (ok bool, retryAfter time.Duration) {
	t.requests.Add(1)
	if t.limits.RateQPS <= 0 {
		return true, 0
	}
	t.mu.Lock()
	now := t.now()
	if elapsed := now.Sub(t.lastRefill).Seconds(); elapsed > 0 {
		t.tokens = math.Min(t.limits.Burst, t.tokens+elapsed*t.limits.RateQPS)
	}
	t.lastRefill = now
	if t.tokens >= 1 {
		t.tokens--
		t.mu.Unlock()
		return true, 0
	}
	deficit := 1 - t.tokens
	t.mu.Unlock()
	t.rateLimited.Add(1)
	wait := deficit / t.limits.RateQPS * float64(time.Second)
	if wait >= math.MaxInt64 { // a tiny RateQPS: the conversion would overflow
		return false, math.MaxInt64
	}
	return false, time.Duration(wait)
}

// TryBeginJob claims an in-flight job slot, reporting false when the
// tenant is at its cap. Every successful claim must be paired with
// EndJob when the job reaches a terminal state.
func (t *Tenant) TryBeginJob() bool {
	if t.limits.MaxInFlight <= 0 {
		t.mu.Lock()
		t.inflight++
		t.mu.Unlock()
		return true
	}
	t.mu.Lock()
	if t.inflight >= t.limits.MaxInFlight {
		t.mu.Unlock()
		t.inflightRejected.Add(1)
		return false
	}
	t.inflight++
	t.mu.Unlock()
	return true
}

// EndJob releases an in-flight slot.
func (t *Tenant) EndJob() {
	t.mu.Lock()
	if t.inflight > 0 {
		t.inflight--
	}
	t.mu.Unlock()
}

// InFlight reports the tenant's live job count.
func (t *Tenant) InFlight() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.inflight
}

// QPS reports the observed request rate over a trailing window, worked
// out from samples of the requests counter that QPS itself takes: it
// records a new sample when the newest is at least 1 s old, and divides
// the requests since base by base's age, where base is the newest sample
// at least windowSeconds old (the oldest while none is). Read at least
// once a second, the window is windowSeconds long; after a gap of g
// between reads it spans windowSeconds to windowSeconds+g. The rate is
// exact over the window it covers. A fresh tenant reads 0.
func (t *Tenant) QPS() float64 {
	t.sampleMu.Lock()
	defer t.sampleMu.Unlock()
	now, n := t.now(), t.requests.Load()
	if now.Sub(t.samples[t.newest].at) >= time.Second {
		t.newest = (t.newest + 1) % len(t.samples)
		t.samples[t.newest] = sample{at: now, n: n}
	}
	var base sample // newest to oldest, stopping at windowSeconds old
	for i := range len(t.samples) {
		base = t.samples[(t.newest-i+len(t.samples))%len(t.samples)]
		if now.Sub(base.at) >= windowSeconds*time.Second {
			break
		}
	}
	secs := now.Sub(base.at).Seconds()
	if secs <= 0 {
		return 0
	}
	return float64(n-base.n) / secs
}

// RateLimited reports how many requests the token bucket refused.
func (t *Tenant) RateLimited() int64 { return t.rateLimited.Load() }

// InFlightRejected reports how many job submissions the in-flight cap
// refused.
func (t *Tenant) InFlightRejected() int64 { return t.inflightRejected.Load() }
