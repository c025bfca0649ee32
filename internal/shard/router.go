package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"prunesim/internal/scenario"
)

// RouterConfig builds a Router.
type RouterConfig struct {
	// Backends are the shard base URLs in shard order: Backends[i] must be
	// the daemon started with -shard-of=i/len(Backends). At least one.
	Backends []string
	// Library resolves named submissions ({"name": "..."}) to scenarios so
	// the front door can hash them for routing; give it the same library
	// the shards serve. Submissions the front door cannot resolve or hash
	// are forwarded to shard 0, whose error answer is authoritative.
	Library []scenario.Scenario
	// ProbeTimeout bounds each backend probe in the front door's /healthz
	// (default 2s).
	ProbeTimeout time.Duration
}

// Router is the front door of a sharded fleet: an http.Handler that
// proxies the whole v1 surface onto the configured backends. Submissions
// route by scenario content hash, ID-addressed calls route by ID prefix,
// lists fan out and merge, session creation round-robins. SSE streams
// proxy unbuffered. Build with NewRouter, expose with Handler.
type Router struct {
	backends []*backend
	library  map[string]scenario.Scenario
	probe    time.Duration
	client   *http.Client
	start    time.Time

	rr         atomic.Uint64 // session-create round-robin cursor
	fanouts    atomic.Int64
	misroutes  atomic.Int64
	badGateway atomic.Int64
}

// backend is one shard target: its base URL and a streaming reverse
// proxy.
type backend struct {
	addr      string
	base      *url.URL
	proxy     *httputil.ReverseProxy
	forwarded atomic.Int64
}

// bufferPool lends the proxies their 32 KiB response-copy buffers, which
// they would otherwise allocate afresh for every proxied response. The
// pool holds *[]byte, the pointer form staticcheck's SA6002 asks for.
type bufferPool struct{ pool sync.Pool }

func newBufferPool() *bufferPool {
	return &bufferPool{pool: sync.Pool{New: func() any {
		buf := make([]byte, 32<<10)
		return &buf
	}}}
}

func (p *bufferPool) Get() []byte    { return *p.pool.Get().(*[]byte) }
func (p *bufferPool) Put(buf []byte) { p.pool.Put(&buf) }

// NewRouter validates the backend URLs and builds their proxies, which
// share one pool of copy buffers.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("shard: router needs at least one backend")
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	rt := &Router{
		library: make(map[string]scenario.Scenario, len(cfg.Library)),
		probe:   cfg.ProbeTimeout,
		client:  &http.Client{Timeout: 30 * time.Second},
		start:   time.Now(),
	}
	for _, sc := range cfg.Library {
		rt.library[sc.Name] = sc
	}
	buffers := newBufferPool()
	for i, addr := range cfg.Backends {
		// Accept bare host:port (what -shard-of workers log and operators
		// naturally paste into -route-to); scheme defaults to http.
		if !strings.Contains(addr, "://") {
			addr = "http://" + addr
		}
		base, err := url.Parse(addr)
		if err != nil {
			return nil, fmt.Errorf("shard: backend %d: %v", i, err)
		}
		if base.Scheme == "" || base.Host == "" {
			return nil, fmt.Errorf("shard: backend %d: %q is not an absolute URL (want e.g. http://host:port)", i, addr)
		}
		proxy := httputil.NewSingleHostReverseProxy(base)
		// SSE: flush every write through immediately instead of buffering.
		proxy.FlushInterval = -1
		proxy.BufferPool = buffers
		proxy.ErrorHandler = func(w http.ResponseWriter, r *http.Request, err error) {
			rt.badGateway.Add(1)
			routerError(w, http.StatusBadGateway, "bad_gateway", "shard backend %s: %v", addr, err)
		}
		rt.backends = append(rt.backends, &backend{addr: addr, base: base, proxy: proxy})
	}
	return rt, nil
}

// routerError writes the same {"error": {...}} envelope shape the service
// uses, without depending on it (the router also fronts daemons it did
// not build).
func routerError(w http.ResponseWriter, status int, code, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]any{
		"error": map[string]string{"code": code, "message": fmt.Sprintf(format, args...)},
	})
}

// Handler returns the front-door HTTP surface.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", rt.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", rt.handleJobList)
	mux.HandleFunc("/v1/jobs/{id}", rt.byID)
	mux.HandleFunc("/v1/jobs/{id}/{rest...}", rt.byID)
	mux.HandleFunc("GET /v1/scenarios", rt.forwardTo(0))
	mux.HandleFunc("POST /v1/sessions", rt.handleSessionCreate)
	mux.HandleFunc("GET /v1/sessions", rt.handleSessionList)
	mux.HandleFunc("/v1/sessions/{id}", rt.byID)
	mux.HandleFunc("/v1/sessions/{id}/{rest...}", rt.byID)
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	return mux
}

// forward proxies the request to shard i.
func (rt *Router) forward(i int, w http.ResponseWriter, r *http.Request) {
	b := rt.backends[i]
	b.forwarded.Add(1)
	b.proxy.ServeHTTP(w, r)
}

// forwardTo returns a handler pinned to one shard (library endpoints —
// every shard serves the same answer).
func (rt *Router) forwardTo(i int) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) { rt.forward(i, w, r) }
}

// handleSubmit routes POST /v1/jobs by scenario content hash: buffer the
// body, resolve and hash the scenario the way the service will, and
// forward the untouched body to shard For(hash, n). Bodies the front door
// cannot resolve go to shard 0, whose own validation answers.
func (rt *Router) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		routerError(w, http.StatusBadRequest, "invalid_request", "reading request body: %v", err)
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	r.ContentLength = int64(len(body))
	rt.forward(rt.shardForSubmit(body), w, r)
}

// shardForSubmit computes the submission's target shard in one JSON
// pass: decode the body straight into a scenario and route by its Hash,
// which normalizes it. Every body a shard accepts routes to the shard
// that owns its hash. A body no shard accepts may route to any shard,
// whose validation answers: one with unknown fields routes by the
// scenario the rest of it decodes to, and one that does not decode,
// resolve or hash routes to shard 0.
func (rt *Router) shardForSubmit(body []byte) int {
	var req struct {
		Name     string         `json:"name"`
		Scenario submitScenario `json:"scenario"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return 0
	}
	sc := req.Scenario.sc
	if req.Name != "" {
		lib, ok := rt.library[req.Name]
		if !ok {
			return 0
		}
		sc = &lib
	}
	if sc == nil {
		return 0
	}
	hash, err := sc.Hash()
	if err != nil {
		return 0
	}
	return For(hash, len(rt.backends))
}

// submitScenario is the scenario member of a submit body. Each occurrence
// decodes into a fresh scenario, so a repeated member replaces the one
// before it, as it does in the shard's own decode, instead of merging
// into it.
type submitScenario struct{ sc *scenario.Scenario }

func (s *submitScenario) UnmarshalJSON(data []byte) error {
	s.sc = new(scenario.Scenario)
	return json.Unmarshal(data, s.sc)
}

// byID routes any ID-addressed call (job status, SSE events, timeline,
// trials.csv, session snapshot/decide/complete/machines) by the ID's
// shard prefix alone.
func (rt *Router) byID(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	i, ok := ShardOfID(id)
	if !ok || i >= len(rt.backends) {
		rt.misroutes.Add(1)
		routerError(w, http.StatusNotFound, "not_found",
			"id %q carries no routable shard prefix (fleet of %d)", id, len(rt.backends))
		return
	}
	rt.forward(i, w, r)
}

// handleSessionCreate round-robins POST /v1/sessions across shards:
// sessions have no content hash, and the minted ID's prefix routes every
// later call.
func (rt *Router) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	i := int(rt.rr.Add(1)-1) % len(rt.backends)
	rt.forward(i, w, r)
}

// credentialHeaders carry a caller's API key (see internal/tenant); list
// fan-outs forward them so each shard answers as that tenant. The names
// are canonical, so looking them up builds no canonical copy.
var credentialHeaders = []string{"Authorization", "X-Api-Key"}

// fanout GETs path on every shard with the caller's credentials and
// hands each body to merge. The first shard that refuses the caller (4xx)
// answers for the whole fan-out; any other backend failure is a 502.
func (rt *Router) fanout(w http.ResponseWriter, r *http.Request, path string, merge func(shard int, body []byte) error) bool {
	rt.fanouts.Add(1)
	for i, b := range rt.backends {
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, b.addr+path, nil)
		if err != nil {
			rt.badGateway.Add(1)
			routerError(w, http.StatusBadGateway, "bad_gateway", "shard backend %s: %v", b.addr, err)
			return false
		}
		for _, h := range credentialHeaders {
			for _, v := range r.Header.Values(h) {
				req.Header.Add(h, v)
			}
		}
		resp, err := rt.client.Do(req)
		if err != nil {
			rt.badGateway.Add(1)
			routerError(w, http.StatusBadGateway, "bad_gateway", "shard backend %s: %v", b.addr, err)
			return false
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode >= 400 && resp.StatusCode < 500 {
			// The shard refused the caller (unknown key, empty token
			// bucket): that answer is the caller's, not a gateway fault.
			for _, h := range []string{"Content-Type", "Retry-After"} {
				if v := resp.Header.Get(h); v != "" {
					w.Header().Set(h, v)
				}
			}
			w.WriteHeader(resp.StatusCode)
			w.Write(body)
			return false
		}
		if err != nil || resp.StatusCode != http.StatusOK {
			rt.badGateway.Add(1)
			routerError(w, http.StatusBadGateway, "bad_gateway",
				"shard backend %s: status %d on %s", b.addr, resp.StatusCode, path)
			return false
		}
		if err := merge(i, body); err != nil {
			rt.badGateway.Add(1)
			routerError(w, http.StatusBadGateway, "bad_gateway", "shard backend %s: %v", b.addr, err)
			return false
		}
	}
	return true
}

// handleJobList merges every shard's GET /v1/jobs, preserving each
// shard's own ordering, shards in fleet order.
func (rt *Router) handleJobList(w http.ResponseWriter, r *http.Request) {
	rt.mergeList(w, r, "/v1/jobs", "jobs")
}

// handleSessionList merges every shard's GET /v1/sessions.
func (rt *Router) handleSessionList(w http.ResponseWriter, r *http.Request) {
	rt.mergeList(w, r, "/v1/sessions", "sessions")
}

// mergeList fans a list endpoint out to every shard and concatenates the
// named array field, leaving each element's bytes untouched.
func (rt *Router) mergeList(w http.ResponseWriter, r *http.Request, path, field string) {
	merged := make([]json.RawMessage, 0, 16)
	ok := rt.fanout(w, r, path, func(_ int, body []byte) error {
		var page map[string][]json.RawMessage
		if err := json.Unmarshal(body, &page); err != nil {
			return fmt.Errorf("decoding %s page: %v", field, err)
		}
		merged = append(merged, page[field]...)
		return nil
	})
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{field: merged})
}

// shardHealth is one backend's row in the front door's /healthz.
type shardHealth struct {
	Shard int    `json:"shard"`
	Addr  string `json:"addr"`
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
}

// handleHealthz reports the front door and a live probe of every shard.
// The front door is "ok" only when every shard answers its /healthz.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	probe := &http.Client{Timeout: rt.probe}
	shards := make([]shardHealth, len(rt.backends))
	allOK := true
	for i, b := range rt.backends {
		shards[i] = shardHealth{Shard: i, Addr: b.addr, OK: true}
		resp, err := probe.Get(b.addr + "/healthz")
		if err != nil {
			shards[i].OK, shards[i].Error = false, err.Error()
		} else {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				shards[i].OK, shards[i].Error = false, fmt.Sprintf("status %d", resp.StatusCode)
			}
		}
		allOK = allOK && shards[i].OK
	}
	status := "ok"
	code := http.StatusOK
	if !allOK {
		status = "degraded"
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]any{
		"status":         status,
		"mode":           "front-door",
		"uptime_seconds": time.Since(rt.start).Seconds(),
		"shards":         shards,
	})
}

// handleMetrics exposes the router's own counters in Prometheus text
// format (per-shard forwards, fan-outs, routing misses, backend
// failures). Shard-level job metrics live on each shard's own /metrics.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprintf(w, "# HELP prunesimd_router_forwarded_total Requests proxied to each shard.\n# TYPE prunesimd_router_forwarded_total counter\n")
	for i, b := range rt.backends {
		fmt.Fprintf(w, "prunesimd_router_forwarded_total{shard=\"%d\"} %d\n", i, b.forwarded.Load())
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP prunesimd_router_%s %s\n# TYPE prunesimd_router_%s counter\nprunesimd_router_%s %d\n",
			name, help, name, name, v)
	}
	counter("fanouts_total", "List requests fanned out to every shard.", rt.fanouts.Load())
	counter("misroutes_total", "ID-addressed requests with no routable shard prefix.", rt.misroutes.Load())
	counter("bad_gateway_total", "Requests that failed against a shard backend.", rt.badGateway.Load())
}
