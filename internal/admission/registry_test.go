package admission

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// noop is a WithHandle body that only resolves the session.
func noop(*Handle, *Session) error { return nil }

// TestRegistryLazyExpiry: a session idle past its TTL answers
// ErrSessionExpired on its next use with no Sweep call in between, and
// counts once toward OnExpired.
func TestRegistryLazyExpiry(t *testing.T) {
	var expired int
	r, fc := newTestRegistry(t, RegistryConfig{
		TTL:       time.Minute,
		OnExpired: func(n int) { expired += n },
	})
	h, err := r.Create(testRegistryConfig())
	if err != nil {
		t.Fatal(err)
	}
	fc.t = fc.t.Add(time.Minute) // exactly the TTL: still live
	if err := r.WithHandle(h.ID, noop); err != nil {
		t.Fatalf("WithHandle at the TTL: %v", err)
	}
	fc.t = fc.t.Add(time.Minute + time.Nanosecond)
	if err := r.WithHandle(h.ID, noop); !errors.Is(err, ErrSessionExpired) {
		t.Fatalf("WithHandle past the TTL err = %v, want ErrSessionExpired", err)
	}
	if err := r.Delete(h.ID); !errors.Is(err, ErrSessionExpired) {
		t.Fatalf("Delete after expiry err = %v, want ErrSessionExpired", err)
	}
	if expired != 1 {
		t.Fatalf("OnExpired total = %d, want 1", expired)
	}
}

// TestRegistryCapacityReclaimsExpired: at the session cap, a create
// reclaims sessions idle past the TTL instead of shedding, and List and
// Len never count an expired session.
func TestRegistryCapacityReclaimsExpired(t *testing.T) {
	var expired int
	r, fc := newTestRegistry(t, RegistryConfig{
		TTL:         time.Minute,
		MaxSessions: 2,
		OnExpired:   func(n int) { expired += n },
	})
	idle, err := r.Create(testRegistryConfig())
	if err != nil {
		t.Fatal(err)
	}
	busy, err := r.Create(testRegistryConfig())
	if err != nil {
		t.Fatal(err)
	}
	fc.t = fc.t.Add(45 * time.Second)
	if err := r.WithHandle(busy.ID, noop); err != nil {
		t.Fatal(err)
	}
	fc.t = fc.t.Add(45 * time.Second) // idle for 90s, busy for 45s
	fresh, err := r.Create(testRegistryConfig())
	if err != nil {
		t.Fatalf("Create at cap with an expired slot: %v", err)
	}
	if _, err := r.Create(testRegistryConfig()); !errors.Is(err, ErrTooManySessions) {
		t.Fatalf("Create at cap with no expired slot err = %v, want ErrTooManySessions", err)
	}
	if err := r.WithHandle(idle.ID, noop); !errors.Is(err, ErrSessionExpired) {
		t.Fatalf("WithHandle(reclaimed) err = %v, want ErrSessionExpired", err)
	}
	fc.t = fc.t.Add(30 * time.Second) // busy idle for 75s, fresh for 30s
	if infos := r.List(); len(infos) != 1 || infos[0].ID != fresh.ID || !infos[0].LastUsed.Equal(fc.t.Add(-30*time.Second)) {
		t.Fatalf("List = %+v, want only %s, last used 30s ago", infos, fresh.ID)
	}
	fc.t = fc.t.Add(31 * time.Second) // fresh idle for 61s
	if n := r.Len(); n != 0 {
		t.Fatalf("Len = %d with every session past its TTL, want 0", n)
	}
	if expired != 3 {
		t.Fatalf("OnExpired total = %d, want 3", expired)
	}
}

// TestRegistryRetiredIDs: every ID the registry minted answers
// ErrSessionExpired once its session is gone, however many sessions were
// retired since; IDs it never minted, including aliases of minted ones,
// answer ErrSessionNotFound.
func TestRegistryRetiredIDs(t *testing.T) {
	r, _ := newTestRegistry(t, RegistryConfig{IDPrefix: "s1-"})
	const cycles = 4200 // more than the 4,096 IDs a bounded tombstone list would keep
	for i := 1; i <= cycles; i++ {
		h, err := r.Create(testRegistryConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Delete(h.ID); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"s1-s000001", "s1-s002048", "s1-s004200"} {
		if err := r.WithHandle(id, noop); !errors.Is(err, ErrSessionExpired) {
			t.Errorf("WithHandle(%q) err = %v, want ErrSessionExpired", id, err)
		}
		if err := r.Delete(id); !errors.Is(err, ErrSessionExpired) {
			t.Errorf("Delete(%q) err = %v, want ErrSessionExpired", id, err)
		}
	}
	for _, id := range []string{
		"s1-s004201", "s1-s000000", // above and below the counter
		"s1-s1", "s1-s0000001", "s1-s+00001", // aliases of s1-s000001
		"s000001", "s2-s000001", "s1-x000001", // other prefixes
		"", "s1-s", "s1-s00000a",
	} {
		if err := r.WithHandle(id, noop); !errors.Is(err, ErrSessionNotFound) {
			t.Errorf("WithHandle(%q) err = %v, want ErrSessionNotFound", id, err)
		}
		if err := r.Delete(id); !errors.Is(err, ErrSessionNotFound) {
			t.Errorf("Delete(%q) err = %v, want ErrSessionNotFound", id, err)
		}
	}
}

// TestRegistryStartsNoGoroutine: expiry runs on lookups, so a registry with
// a TTL starts no goroutine of its own.
func TestRegistryStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	r := NewRegistry(RegistryConfig{TTL: time.Millisecond})
	defer r.Close()
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("NewRegistry started %d goroutines", after-before)
	}
}
