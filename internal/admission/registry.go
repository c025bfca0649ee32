package admission

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry errors; the HTTP layer maps them onto the error envelope.
var (
	// ErrSessionNotFound reports a session ID the registry never minted.
	ErrSessionNotFound = errors.New("admission: session not found")
	// ErrSessionExpired reports a session the registry minted that is no
	// longer live: idle past the TTL, deleted, or closed with the registry.
	ErrSessionExpired = errors.New("admission: session expired")
)

// Handle pairs a session with the lock that serializes access to it. The
// registry hands out handles; callers go through Registry.WithHandle, which
// manages the lock and the expiry bookkeeping.
type Handle struct {
	ID      string
	Created time.Time

	// used is the registry clock at the last use, as time since the
	// registry's epoch. It is atomic so the registry can check idleness
	// under its own lock without taking mu.
	used atomic.Int64

	mu      sync.Mutex
	session *Session // nil once closed; guarded by mu
}

// close ends the handle's session; a WithHandle call already holding the
// handle then answers ErrSessionExpired. The registry calls it once, after
// taking the handle out of its live set.
func (h *Handle) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.session.Close()
	h.session = nil
}

// RegistryConfig configures a Registry.
type RegistryConfig struct {
	// TTL is how long a session may sit idle before it expires.
	// Zero selects DefaultTTL; negative disables expiry.
	TTL time.Duration
	// MaxSessions caps live sessions; 0 selects DefaultMaxSessions.
	MaxSessions int
	// IDPrefix prefixes every session ID the registry mints (e.g. "s1-"
	// on shard 1 of a fleet), making IDs globally unique so a front door
	// can route session calls by ID alone.
	IDPrefix string
	// OnExpired, when non-nil, is called with the count each time idle
	// sessions expire (metrics hook).
	OnExpired func(count int)
	// now overrides the clock in tests.
	now func() time.Time
}

// Defaults for RegistryConfig.
const (
	DefaultTTL         = 15 * time.Minute
	DefaultMaxSessions = 256
)

// ErrTooManySessions reports that the registry is at its session cap.
var ErrTooManySessions = errors.New("admission: too many live sessions")

// Registry owns every live admission session: creation, per-session
// serialization and idle-TTL expiry. Expiry is lazy, on the registry's own
// clock: a session idle past the TTL is retired when it is next looked up,
// and Create, List and Len sweep first, so no expired session holds a slot
// or shows in a count. The ID counter tells a retired ID (410 Gone) from
// one never minted (404). All methods are safe for concurrent use.
type Registry struct {
	cfg   RegistryConfig
	epoch time.Time // the clock at construction; Handle.used counts from it

	mu       sync.Mutex
	sessions map[string]*Handle
	nextID   int
}

// NewRegistry builds a registry. It starts no goroutine; Close closes
// every live session.
func NewRegistry(cfg RegistryConfig) *Registry {
	if cfg.TTL == 0 {
		cfg.TTL = DefaultTTL
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = DefaultMaxSessions
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	return &Registry{cfg: cfg, epoch: cfg.now(), sessions: make(map[string]*Handle)}
}

// clock reads the registry clock as time since its epoch.
func (r *Registry) clock() int64 { return int64(r.cfg.now().Sub(r.epoch)) }

// idle reports whether h has sat idle past the TTL at clock reading now.
func (r *Registry) idle(h *Handle, now int64) bool {
	return r.cfg.TTL > 0 && now-h.used.Load() > int64(r.cfg.TTL)
}

// mintID is the ID of the n-th session the registry creates.
func (r *Registry) mintID(n int) string { return fmt.Sprintf("%ss%06d", r.cfg.IDPrefix, n) }

// miss is the error for an ID with no live session: ErrSessionExpired if
// the registry minted it, ErrSessionNotFound otherwise. IDs come from a
// counter, so a minted ID is exactly mintID(n) for some 1 ≤ n ≤ nextID;
// aliases such as "s1" are not. Caller holds r.mu.
func (r *Registry) miss(id string) error {
	digits, ok := strings.CutPrefix(id, r.cfg.IDPrefix+"s")
	if n, err := strconv.Atoi(digits); ok && err == nil && n >= 1 && n <= r.nextID && r.mintID(n) == id {
		return fmt.Errorf("%w: %s", ErrSessionExpired, id)
	}
	return fmt.Errorf("%w: %s", ErrSessionNotFound, id)
}

// Create registers a new session and returns its handle. Expired sessions
// are swept first, so they never hold a slot a create needs.
func (r *Registry) Create(cfg Config) (*Handle, error) {
	s, err := NewSession(cfg)
	if err != nil {
		return nil, err
	}
	r.Sweep()
	r.mu.Lock()
	if len(r.sessions) >= r.cfg.MaxSessions {
		r.mu.Unlock()
		s.Close()
		return nil, fmt.Errorf("%w (cap %d)", ErrTooManySessions, r.cfg.MaxSessions)
	}
	r.nextID++
	now := r.cfg.now()
	h := &Handle{ID: r.mintID(r.nextID), Created: now, session: s}
	h.used.Store(int64(now.Sub(r.epoch)))
	r.sessions[h.ID] = h
	r.mu.Unlock()
	return h, nil
}

// lookup fetches a live handle or the typed miss error, taking it out of
// the registry too when remove is set (Delete). A session idle past the TTL
// is never handed out: lookup retires it and answers ErrSessionExpired.
func (r *Registry) lookup(id string, remove bool) (*Handle, error) {
	r.mu.Lock()
	h, ok := r.sessions[id]
	if !ok {
		err := r.miss(id)
		r.mu.Unlock()
		return nil, err
	}
	idle := r.idle(h, r.clock())
	if idle || remove {
		delete(r.sessions, id)
	}
	r.mu.Unlock()
	if idle {
		r.expire([]*Handle{h})
		return nil, fmt.Errorf("%w: %s", ErrSessionExpired, id)
	}
	return h, nil
}

// WithHandle runs fn with exclusive access to the session and its handle
// (for Created and ID), refreshing the idle timer. It returns
// ErrSessionNotFound / ErrSessionExpired for misses, and ErrSessionExpired
// if the session was expired between lookup and lock. It is the registry's
// one locked entry point to a session.
func (r *Registry) WithHandle(id string, fn func(*Handle, *Session) error) error {
	h, err := r.lookup(id, false)
	if err != nil {
		return err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.session == nil {
		return fmt.Errorf("%w: %s", ErrSessionExpired, id)
	}
	h.used.Store(r.clock())
	return fn(h, h.session)
}

// Delete closes and removes a session explicitly; later use of its ID
// reports ErrSessionExpired.
func (r *Registry) Delete(id string) error {
	h, err := r.lookup(id, true)
	if err != nil {
		return err
	}
	h.close()
	return nil
}

// Sweep expires every session idle past the TTL and returns how many it
// closed. Create, List and Len call it; lookups expire sessions one by one.
func (r *Registry) Sweep() int {
	now := r.clock()
	var idle []*Handle
	r.mu.Lock()
	for id, h := range r.sessions {
		if r.idle(h, now) {
			idle = append(idle, h)
			delete(r.sessions, id)
		}
	}
	r.mu.Unlock()
	r.expire(idle)
	return len(idle)
}

// expire closes sessions already taken out of the registry for idling and
// reports them to OnExpired.
func (r *Registry) expire(idle []*Handle) {
	for _, h := range idle {
		h.close()
	}
	if len(idle) > 0 && r.cfg.OnExpired != nil {
		r.cfg.OnExpired(len(idle))
	}
}

// SessionInfo is one row of List.
type SessionInfo struct {
	ID       string    `json:"session_id"`
	Created  time.Time `json:"created"`
	LastUsed time.Time `json:"last_used"`
	Now      float64   `json:"now"`
	InFlight int       `json:"in_flight"`
	Machines int       `json:"machines"`
}

// List snapshots every live session, sorted by ID (IDs are zero-padded to
// six digits, so through s999999 lexicographic order is creation order).
func (r *Registry) List() []SessionInfo {
	r.Sweep()
	r.mu.Lock()
	hs := make([]*Handle, 0, len(r.sessions))
	for _, h := range r.sessions {
		hs = append(hs, h)
	}
	r.mu.Unlock()
	infos := make([]SessionInfo, 0, len(hs))
	for _, h := range hs {
		h.mu.Lock()
		if h.session != nil {
			infos = append(infos, SessionInfo{
				ID:       h.ID,
				Created:  h.Created,
				LastUsed: r.epoch.Add(time.Duration(h.used.Load())),
				Now:      h.session.Now(),
				InFlight: h.session.InFlight(),
				Machines: len(h.session.machines),
			})
		}
		h.mu.Unlock()
	}
	slices.SortFunc(infos, func(a, b SessionInfo) int { return strings.Compare(a.ID, b.ID) })
	return infos
}

// Len returns the number of live sessions.
func (r *Registry) Len() int {
	r.Sweep()
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sessions)
}

// Close closes every session. The registry must not be used afterwards.
func (r *Registry) Close() {
	r.mu.Lock()
	live := r.sessions
	r.sessions = make(map[string]*Handle)
	r.mu.Unlock()
	for _, h := range live {
		h.close()
	}
}
