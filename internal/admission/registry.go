package admission

import (
	"container/list"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Registry errors; the HTTP layer maps them onto the error envelope.
var (
	// ErrSessionNotFound reports a session ID the registry has never held.
	ErrSessionNotFound = errors.New("admission: session not found")
	// ErrSessionExpired reports a session that existed but was expired by
	// the TTL janitor or explicitly closed.
	ErrSessionExpired = errors.New("admission: session expired")
)

// tombstoneCap bounds how many expired-session IDs the registry remembers
// for ErrSessionExpired answers; the oldest are forgotten first (and report
// ErrSessionNotFound from then on).
const tombstoneCap = 4096

// Handle pairs a session with the lock that serializes access to it. The
// registry hands out handles; callers go through Registry.WithHandle, which
// manages the lock and the expiry bookkeeping.
type Handle struct {
	ID      string
	Created time.Time

	mu       sync.Mutex
	session  *Session
	lastUsed time.Time // guarded by mu
}

// RegistryConfig configures a Registry.
type RegistryConfig struct {
	// TTL is how long a session may sit idle before the janitor expires it.
	// Zero selects DefaultTTL; negative disables expiry.
	TTL time.Duration
	// MaxSessions caps live sessions; 0 selects DefaultMaxSessions.
	MaxSessions int
	// IDPrefix prefixes every session ID the registry mints (e.g. "s1-"
	// on shard 1 of a fleet), making IDs globally unique so a front door
	// can route session calls by ID alone.
	IDPrefix string
	// OnExpired, when non-nil, is called after each sweep that expired
	// sessions, with the count (metrics hook).
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
// serialization, idle-TTL expiry and the expired-ID tombstones that let the
// HTTP layer answer 410 Gone instead of 404. All methods are safe for
// concurrent use.
type Registry struct {
	cfg RegistryConfig
	now func() time.Time

	mu       sync.Mutex
	sessions map[string]*Handle
	nextID   int
	dead     map[string]struct{}
	deadFIFO *list.List // of string, oldest first

	stopOnce sync.Once
	stop     chan struct{}
}

// NewRegistry builds a registry and starts its TTL janitor (unless expiry
// is disabled). Close stops the janitor and closes every session.
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
	r := &Registry{
		cfg:      cfg,
		now:      cfg.now,
		sessions: make(map[string]*Handle),
		dead:     make(map[string]struct{}),
		deadFIFO: list.New(),
		stop:     make(chan struct{}),
	}
	if cfg.TTL > 0 {
		interval := cfg.TTL / 4
		if interval < time.Second {
			interval = time.Second
		}
		go r.janitor(interval)
	}
	return r
}

// janitor periodically expires idle sessions until Close.
func (r *Registry) janitor(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.Sweep()
		}
	}
}

// Create registers a new session and returns its handle.
func (r *Registry) Create(cfg Config) (*Handle, error) {
	s, err := NewSession(cfg)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	if len(r.sessions) >= r.cfg.MaxSessions {
		r.mu.Unlock()
		s.Close()
		return nil, fmt.Errorf("%w (cap %d)", ErrTooManySessions, r.cfg.MaxSessions)
	}
	r.nextID++
	now := r.now()
	h := &Handle{
		ID:       fmt.Sprintf("%ss%06d", r.cfg.IDPrefix, r.nextID),
		Created:  now,
		session:  s,
		lastUsed: now,
	}
	r.sessions[h.ID] = h
	r.mu.Unlock()
	return h, nil
}

// lookup fetches a live handle or the typed miss error.
func (r *Registry) lookup(id string) (*Handle, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.sessions[id]; ok {
		return h, nil
	}
	if _, ok := r.dead[id]; ok {
		return nil, fmt.Errorf("%w: %s", ErrSessionExpired, id)
	}
	return nil, fmt.Errorf("%w: %s", ErrSessionNotFound, id)
}

// WithHandle runs fn with exclusive access to the session and its handle
// (for Created and ID), refreshing the idle timer. It returns
// ErrSessionNotFound / ErrSessionExpired for misses, and ErrSessionExpired
// if the session was expired between lookup and lock. It is the registry's
// one locked entry point to a session.
func (r *Registry) WithHandle(id string, fn func(*Handle, *Session) error) error {
	h, err := r.lookup(id)
	if err != nil {
		return err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.session == nil {
		return fmt.Errorf("%w: %s", ErrSessionExpired, id)
	}
	h.lastUsed = r.now()
	return fn(h, h.session)
}

// Delete closes and removes a session explicitly. The ID is tombstoned, so
// later use reports ErrSessionExpired.
func (r *Registry) Delete(id string) error {
	r.mu.Lock()
	h, ok := r.sessions[id]
	if !ok {
		_, dead := r.dead[id]
		r.mu.Unlock()
		if dead {
			return fmt.Errorf("%w: %s", ErrSessionExpired, id)
		}
		return fmt.Errorf("%w: %s", ErrSessionNotFound, id)
	}
	delete(r.sessions, id)
	r.bury(id)
	r.mu.Unlock()

	h.mu.Lock()
	if h.session != nil {
		h.session.Close()
		h.session = nil
	}
	h.mu.Unlock()
	return nil
}

// bury tombstones an ID, evicting the oldest tombstone past the cap.
// Caller holds r.mu.
func (r *Registry) bury(id string) {
	r.dead[id] = struct{}{}
	r.deadFIFO.PushBack(id)
	for r.deadFIFO.Len() > tombstoneCap {
		front := r.deadFIFO.Remove(r.deadFIFO.Front()).(string)
		delete(r.dead, front)
	}
}

// Sweep expires every session idle past the TTL and returns how many it
// closed. The janitor calls it periodically; tests call it directly.
func (r *Registry) Sweep() int {
	if r.cfg.TTL <= 0 {
		return 0
	}
	cutoff := r.now().Add(-r.cfg.TTL)
	r.mu.Lock()
	var idle []*Handle
	for _, h := range r.sessions {
		// lastUsed is guarded by h.mu, but reading it under r.mu only risks
		// seeing a refresh late; With re-checks session != nil after
		// locking, so a racing expiry is still answered correctly.
		h.mu.Lock()
		stale := h.lastUsed.Before(cutoff)
		h.mu.Unlock()
		if stale {
			idle = append(idle, h)
			delete(r.sessions, h.ID)
			r.bury(h.ID)
		}
	}
	r.mu.Unlock()
	for _, h := range idle {
		h.mu.Lock()
		if h.session != nil {
			h.session.Close()
			h.session = nil
		}
		h.mu.Unlock()
	}
	if len(idle) > 0 && r.cfg.OnExpired != nil {
		r.cfg.OnExpired(len(idle))
	}
	return len(idle)
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

// List snapshots every live session, sorted by ID.
func (r *Registry) List() []SessionInfo {
	r.mu.Lock()
	handles := make([]*Handle, 0, len(r.sessions))
	for _, h := range r.sessions {
		handles = append(handles, h)
	}
	r.mu.Unlock()
	infos := make([]SessionInfo, 0, len(handles))
	for _, h := range handles {
		h.mu.Lock()
		if h.session != nil {
			infos = append(infos, SessionInfo{
				ID:       h.ID,
				Created:  h.Created,
				LastUsed: h.lastUsed,
				Now:      h.session.Now(),
				InFlight: h.session.InFlight(),
				Machines: len(h.session.machines),
			})
		}
		h.mu.Unlock()
	}
	sortInfos(infos)
	return infos
}

// sortInfos orders by ID (IDs are zero-padded, so lexicographic ==
// creation order).
func sortInfos(infos []SessionInfo) {
	for i := 1; i < len(infos); i++ {
		for p := i; p > 0 && infos[p].ID < infos[p-1].ID; p-- {
			infos[p], infos[p-1] = infos[p-1], infos[p]
		}
	}
}

// Len returns the number of live sessions.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sessions)
}

// Close stops the janitor and closes every session. The registry must not
// be used afterwards.
func (r *Registry) Close() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.mu.Lock()
	handles := make([]*Handle, 0, len(r.sessions))
	for id, h := range r.sessions {
		handles = append(handles, h)
		delete(r.sessions, id)
	}
	r.mu.Unlock()
	for _, h := range handles {
		h.mu.Lock()
		if h.session != nil {
			h.session.Close()
			h.session = nil
		}
		h.mu.Unlock()
	}
}
