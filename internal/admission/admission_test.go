package admission

import (
	"errors"
	"math"
	"testing"
	"time"

	"prunesim/internal/core"
	"prunesim/internal/pet"
	"prunesim/internal/sim"
	"prunesim/internal/task"
)

// testMatrix is a small, fast, deterministic 2-type x 2-machine PET matrix.
func testMatrix() *pet.Matrix {
	return pet.NewMatrix(
		[][]float64{{2, 6}, {4, 3}},
		[]string{"a", "b"},
		[]string{"m0", "m1"},
		pet.Params{BinWidth: 0.5, Samples: 200, ShapeLo: 2, ShapeHi: 8, Seed: 42},
	)
}

// newTestSession builds a session on the test matrix with the given pruning
// config (nil = paper defaults for 2 types).
func newTestSession(t *testing.T, prune *core.Config) *Session {
	t.Helper()
	cfg := Config{Matrix: testMatrix()}
	if prune != nil {
		cfg.Prune = *prune
	} else {
		cfg.Prune = core.DefaultConfig(2)
	}
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestNewSessionValidation(t *testing.T) {
	m := testMatrix()
	cases := []struct {
		name string
		cfg  Config
	}{
		{"batch heuristic", Config{Matrix: m, Heuristic: "MM"}},
		{"unknown heuristic", Config{Matrix: m, Heuristic: "nope"}},
		{"bad machine type", Config{Matrix: m, MachineTypes: []int{0, 7}}},
		{"no machines", Config{Matrix: m, MachineTypes: []int{}}},
		{"negative slots", Config{Matrix: m, Slots: -1}},
		{"bad prune", Config{Matrix: m, Prune: core.Config{NumTaskTypes: 2, Threshold: 3}}},
		// The standard matrix has 12 task types; a 5-type pruner would
		// index past its per-type state on the first type-7 arrival.
		{"pruner sized for another matrix", Config{Prune: core.DefaultConfig(5)}},
		{"too many machines", Config{Matrix: m, MachineTypes: make([]int, sim.MaxMachines+1)}},
	}
	for _, c := range cases {
		if _, err := NewSession(c.cfg); err == nil {
			t.Errorf("%s: want error, got nil", c.name)
		}
	}
	// Defaults: nil matrix and machine types, empty heuristic, zero prune
	// config must all be filled in.
	s, err := NewSession(Config{})
	if err != nil {
		t.Fatalf("zero config: %v", err)
	}
	defer s.Close()
	if got := s.Config().Heuristic; got != "MCT" {
		t.Errorf("default heuristic = %q, want MCT", got)
	}
	if n := len(s.Config().MachineTypes); n != s.Config().Matrix.NumMachineTypes() {
		t.Errorf("default machines = %d, want one per type (%d)", n, s.Config().Matrix.NumMachineTypes())
	}
}

func TestDecideAcceptsAndStarts(t *testing.T) {
	s := newTestSession(t, nil)
	d, err := s.Decide(TaskSpec{Type: 0, Deadline: 1000}, 0)
	if err != nil {
		t.Fatalf("Decide: %v", err)
	}
	if d.Verdict != VerdictAccept {
		t.Fatalf("verdict = %s (%s), want accept", d.Verdict, d.Reason)
	}
	if !d.Started {
		t.Errorf("first task on an idle platform should start immediately")
	}
	if d.Machine < 0 || d.Chance <= 0 {
		t.Errorf("accept should carry machine and chance, got machine=%d chance=%v", d.Machine, d.Chance)
	}
	if d.TaskID != 0 {
		t.Errorf("first task ID = %d, want 0", d.TaskID)
	}
	if got := s.InFlight(); got != 1 {
		t.Errorf("InFlight = %d, want 1", got)
	}
}

func TestDecideDropsDeadOnArrival(t *testing.T) {
	s := newTestSession(t, nil)
	d, err := s.Decide(TaskSpec{Type: 0, Deadline: 5}, 10)
	if err != nil {
		t.Fatalf("Decide: %v", err)
	}
	if d.Verdict != VerdictDrop || d.Reason != ReasonDeadlineMissed {
		t.Fatalf("verdict = %s/%s, want drop/%s", d.Verdict, d.Reason, ReasonDeadlineMissed)
	}
	if s.Counters().Dropped != 1 {
		t.Errorf("Dropped counter = %d, want 1", s.Counters().Dropped)
	}
}

func TestDecideDefersLowChance(t *testing.T) {
	s := newTestSession(t, nil)
	// Load the platform, then offer a task with a deadline so tight its
	// chance of success is ~0: with deferring enabled it must be deferred.
	for i := 0; i < 20; i++ {
		if _, err := s.Decide(TaskSpec{Type: 0, Deadline: 1e6}, 0); err != nil {
			t.Fatalf("warm-up decide %d: %v", i, err)
		}
	}
	d, err := s.Decide(TaskSpec{Type: 0, Deadline: 0.6}, 0.5)
	if err != nil {
		t.Fatalf("Decide: %v", err)
	}
	if d.Verdict != VerdictDefer || d.Reason != ReasonLowChance {
		t.Fatalf("verdict = %s/%s (chance %v threshold %v), want defer/%s",
			d.Verdict, d.Reason, d.Chance, d.Threshold, ReasonLowChance)
	}
	if d.Chance > d.Threshold {
		t.Errorf("deferred with chance %v > threshold %v", d.Chance, d.Threshold)
	}
}

func TestDecideDropsWhenDeferDisabled(t *testing.T) {
	cfg := core.DefaultConfig(2)
	cfg.DeferEnabled = false
	cfg.DropMode = core.ToggleAlways
	s := newTestSession(t, &cfg)
	for i := 0; i < 20; i++ {
		if _, err := s.Decide(TaskSpec{Type: 0, Deadline: 1e6}, 0); err != nil {
			t.Fatalf("warm-up decide %d: %v", i, err)
		}
	}
	d, err := s.Decide(TaskSpec{Type: 0, Deadline: 0.6}, 0.5)
	if err != nil {
		t.Fatalf("Decide: %v", err)
	}
	if d.Verdict != VerdictDrop || d.Reason != ReasonLowChance {
		t.Fatalf("verdict = %s/%s, want drop/%s", d.Verdict, d.Reason, ReasonLowChance)
	}
}

func TestDecideValidation(t *testing.T) {
	s := newTestSession(t, nil)
	bad := []TaskSpec{
		{Type: -1, Deadline: 10},
		{Type: 2, Deadline: 10},
		{Type: 0, Deadline: math.NaN()},
		{Type: 0, Deadline: math.Inf(1)},
		{Type: 0, Deadline: 10, Value: math.NaN()},
		{Type: 0, Deadline: 10, Value: -1},
	}
	for i, spec := range bad {
		if _, err := s.Decide(spec, 0); err == nil {
			t.Errorf("spec %d: want error, got nil", i)
		}
	}
	if _, err := s.Decide(TaskSpec{Type: 0, Deadline: 10}, math.NaN()); err == nil {
		t.Error("NaN now: want error, got nil")
	}
}

func TestClockIsMonotonic(t *testing.T) {
	s := newTestSession(t, nil)
	if _, err := s.Decide(TaskSpec{Type: 0, Deadline: 100}, 10); err != nil {
		t.Fatal(err)
	}
	d, err := s.Decide(TaskSpec{Type: 0, Deadline: 100}, 5) // clock runs backwards
	if err != nil {
		t.Fatal(err)
	}
	if d.Now != 10 {
		t.Errorf("decision Now = %v, want clamped to 10", d.Now)
	}
	if s.Now() != 10 {
		t.Errorf("session Now = %v, want 10", s.Now())
	}
}

func TestCompleteLifecycle(t *testing.T) {
	s := newTestSession(t, nil)
	d, err := s.Decide(TaskSpec{Type: 0, Deadline: 1000}, 0)
	if err != nil || d.Verdict != VerdictAccept || !d.Started {
		t.Fatalf("accept+start expected, got %+v err=%v", d, err)
	}
	c, err := s.Complete(d.TaskID, 2)
	if err != nil {
		t.Fatalf("Complete: %v", err)
	}
	if c.Stale {
		t.Fatal("completion reported stale for a running task")
	}
	if !c.OnTime || c.State != task.StatusCompletedOnTime.String() {
		t.Errorf("OnTime=%v State=%q, want on-time completion", c.OnTime, c.State)
	}
	if s.InFlight() != 0 {
		t.Errorf("InFlight = %d after completion, want 0", s.InFlight())
	}
	// Completing again (or any unknown ID) is a typed error.
	if _, err := s.Complete(d.TaskID, 3); !errors.Is(err, ErrUnknownTask) {
		t.Errorf("second Complete: err = %v, want ErrUnknownTask", err)
	}
	got := s.Counters()
	if got.Completions != 1 || got.OnTime != 1 || got.Late != 0 {
		t.Errorf("counters = %+v, want 1 on-time completion", got)
	}
}

func TestCompleteLate(t *testing.T) {
	s := newTestSession(t, nil)
	d, err := s.Decide(TaskSpec{Type: 0, Deadline: 5}, 0)
	if err != nil || d.Verdict != VerdictAccept {
		t.Fatalf("accept expected, got %+v err=%v", d, err)
	}
	c, err := s.Complete(d.TaskID, 50) // way past the deadline
	if err != nil {
		t.Fatalf("Complete: %v", err)
	}
	if c.OnTime || c.State != task.StatusCompletedLate.String() {
		t.Errorf("OnTime=%v State=%q, want late completion", c.OnTime, c.State)
	}
	if s.Counters().Late != 1 {
		t.Errorf("Late counter = %d, want 1", s.Counters().Late)
	}
}

// TestCompleteStartsNextTask pins the completion-as-mapping-event contract:
// the freed machine's queue head starts and is reported.
func TestCompleteStartsNextTask(t *testing.T) {
	cfg := Config{Matrix: testMatrix(), MachineTypes: []int{0}, Prune: core.DefaultConfig(2)}
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	first, err := s.Decide(TaskSpec{Type: 0, Deadline: 1000}, 0)
	if err != nil || !first.Started {
		t.Fatalf("first: %+v err=%v", first, err)
	}
	second, err := s.Decide(TaskSpec{Type: 0, Deadline: 1000}, 0)
	if err != nil || second.Verdict != VerdictAccept || second.Started {
		t.Fatalf("second should queue behind first: %+v err=%v", second, err)
	}
	c, err := s.Complete(first.TaskID, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Started) != 1 || c.Started[0] != second.TaskID {
		t.Errorf("Started = %v, want [%d]", c.Started, second.TaskID)
	}
}

func TestSweepEvictsMissedDeadlines(t *testing.T) {
	cfg := Config{Matrix: testMatrix(), MachineTypes: []int{0}, Prune: core.DefaultConfig(2)}
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// First task runs; second queues with a deadline that will pass.
	first, _ := s.Decide(TaskSpec{Type: 0, Deadline: 1000}, 0)
	second, _ := s.Decide(TaskSpec{Type: 0, Deadline: 20}, 0)
	if second.Verdict != VerdictAccept || second.Started {
		t.Fatalf("second should be pending: %+v", second)
	}
	// A decision far past the second task's deadline must reactively evict
	// it during the sweep.
	third, err := s.Decide(TaskSpec{Type: 0, Deadline: 1000}, 100)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range third.Evicted {
		if ev.TaskID == second.TaskID && ev.Reason == ReasonDeadlineMissed {
			found = true
		}
	}
	if !found {
		t.Fatalf("eviction of task %d missing from %v", second.TaskID, third.Evicted)
	}
	// The evicted task is no longer completable.
	if _, err := s.Complete(second.TaskID, 101); !errors.Is(err, ErrUnknownTask) {
		t.Errorf("Complete(evicted) err = %v, want ErrUnknownTask", err)
	}
	// But the running first task still is.
	if _, err := s.Complete(first.TaskID, 102); err != nil {
		t.Errorf("Complete(running) err = %v", err)
	}
}

func TestSlotsCapDefers(t *testing.T) {
	cfg := Config{Matrix: testMatrix(), MachineTypes: []int{0}, Slots: 1, Prune: core.DefaultConfig(2)}
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// First runs, second occupies the single pending slot, third must be
	// deferred with no_machine.
	for i := 0; i < 2; i++ {
		d, err := s.Decide(TaskSpec{Type: 0, Deadline: 1000}, 0)
		if err != nil || d.Verdict != VerdictAccept {
			t.Fatalf("decide %d: %+v err=%v", i, d, err)
		}
	}
	d, err := s.Decide(TaskSpec{Type: 0, Deadline: 1000}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Verdict != VerdictDefer || d.Reason != ReasonNoMachine {
		t.Fatalf("verdict = %s/%s, want defer/%s", d.Verdict, d.Reason, ReasonNoMachine)
	}
}

func TestFailMachineStaleCompletion(t *testing.T) {
	cfg := Config{Matrix: testMatrix(), MachineTypes: []int{0}, Prune: core.DefaultConfig(2)}
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	d, err := s.Decide(TaskSpec{Type: 0, Deadline: 1000}, 0)
	if err != nil || !d.Started {
		t.Fatalf("accept+start expected: %+v err=%v", d, err)
	}
	orphans, err := s.FailMachine(0, 1)
	if err != nil {
		t.Fatalf("FailMachine: %v", err)
	}
	if len(orphans) != 1 || orphans[0].TaskID != d.TaskID || orphans[0].Reason != ReasonMachineFailed {
		t.Fatalf("orphans = %v, want task %d machine_failed", orphans, d.TaskID)
	}
	// The client, unaware of the failure, reports the completion: it must
	// come back stale (generation mismatch), not corrupt machine state.
	c, err := s.Complete(d.TaskID, 2)
	if err != nil {
		t.Fatalf("Complete after failure: %v", err)
	}
	if !c.Stale {
		t.Fatal("completion for a failed machine's task must be stale")
	}
	if s.Counters().StaleCompletions != 1 {
		t.Errorf("StaleCompletions = %d, want 1", s.Counters().StaleCompletions)
	}
	// Down machine accepts nothing; rejoin restores capacity.
	if d, _ := s.Decide(TaskSpec{Type: 0, Deadline: 1000}, 3); d.Verdict != VerdictDefer || d.Reason != ReasonNoMachine {
		t.Fatalf("decide on all-down platform = %s/%s, want defer/no_machine", d.Verdict, d.Reason)
	}
	if err := s.RejoinMachine(0); err != nil {
		t.Fatalf("Rejoin: %v", err)
	}
	if d, _ := s.Decide(TaskSpec{Type: 0, Deadline: 1000}, 4); d.Verdict != VerdictAccept {
		t.Fatalf("decide after rejoin = %s, want accept", d.Verdict)
	}
	// Double fail / double rejoin are errors, as is an unknown machine.
	if _, err := s.FailMachine(5, 5); !errors.Is(err, ErrUnknownMachine) {
		t.Errorf("FailMachine(5) err = %v, want ErrUnknownMachine", err)
	}
	if err := s.RejoinMachine(0); err == nil {
		t.Error("rejoining an up machine should error")
	}
}

func TestDecideBatchSharesOneSweep(t *testing.T) {
	s := newTestSession(t, nil)
	ds, err := s.DecideBatch([]TaskSpec{
		{Type: 0, Deadline: 1000},
		{Type: 1, Deadline: 1000},
		{Type: 0, Deadline: 1000},
	}, 0)
	if err != nil {
		t.Fatalf("DecideBatch: %v", err)
	}
	if len(ds) != 3 {
		t.Fatalf("got %d decisions, want 3", len(ds))
	}
	for i, d := range ds {
		if d.Verdict != VerdictAccept {
			t.Errorf("decision %d: %s/%s, want accept", i, d.Verdict, d.Reason)
		}
	}
	// IDs are assigned in order.
	if ds[0].TaskID+1 != ds[1].TaskID || ds[1].TaskID+1 != ds[2].TaskID {
		t.Errorf("IDs not sequential: %d %d %d", ds[0].TaskID, ds[1].TaskID, ds[2].TaskID)
	}
	// An empty batch is fine and does nothing but sweep.
	if _, err := s.DecideBatch(nil, 1); err != nil {
		t.Errorf("empty batch: %v", err)
	}
}

func TestSnapshot(t *testing.T) {
	s := newTestSession(t, nil)
	d, _ := s.Decide(TaskSpec{Type: 0, Deadline: 1000}, 1)
	snap := s.Snapshot()
	if snap.Now != 1 || snap.InFlight != 1 {
		t.Errorf("snapshot now=%v inflight=%d, want 1/1", snap.Now, snap.InFlight)
	}
	if len(snap.Machines) != 2 {
		t.Fatalf("machines = %d, want 2", len(snap.Machines))
	}
	running := false
	for _, m := range snap.Machines {
		if m.RunningTask == d.TaskID {
			running = true
		}
	}
	if !running {
		t.Errorf("accepted task %d not running in snapshot %+v", d.TaskID, snap.Machines)
	}
}

// --- Registry ---

// fakeClock is a controllable registry clock.
type fakeClock struct{ t time.Time }

func (f *fakeClock) now() time.Time { return f.t }

func newTestRegistry(t *testing.T, cfg RegistryConfig) (*Registry, *fakeClock) {
	t.Helper()
	fc := &fakeClock{t: time.Unix(1000, 0)}
	cfg.now = fc.now
	if cfg.TTL == 0 {
		cfg.TTL = -1 // no janitor goroutine unless the test wants one
	}
	r := NewRegistry(cfg)
	t.Cleanup(r.Close)
	return r, fc
}

func testRegistryConfig() Config {
	return Config{Matrix: testMatrix(), Prune: core.DefaultConfig(2)}
}

func TestRegistryLifecycle(t *testing.T) {
	r, _ := newTestRegistry(t, RegistryConfig{})
	h, err := r.Create(testRegistryConfig())
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if h.ID != "s000001" {
		t.Errorf("ID = %q, want s000001", h.ID)
	}
	if err := r.WithHandle(h.ID, func(_ *Handle, s *Session) error {
		_, err := s.Decide(TaskSpec{Type: 0, Deadline: 100}, 0)
		return err
	}); err != nil {
		t.Fatalf("WithHandle: %v", err)
	}
	infos := r.List()
	if len(infos) != 1 || infos[0].ID != h.ID || infos[0].InFlight != 1 {
		t.Errorf("List = %+v, want one session with one in-flight task", infos)
	}
	if err := r.Delete(h.ID); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	// Deleted -> expired (tombstoned), unknown -> not found.
	if err := r.WithHandle(h.ID, func(*Handle, *Session) error { return nil }); !errors.Is(err, ErrSessionExpired) {
		t.Errorf("WithHandle(deleted) err = %v, want ErrSessionExpired", err)
	}
	if err := r.Delete(h.ID); !errors.Is(err, ErrSessionExpired) {
		t.Errorf("Delete(deleted) err = %v, want ErrSessionExpired", err)
	}
	if err := r.WithHandle("s999999", func(*Handle, *Session) error { return nil }); !errors.Is(err, ErrSessionNotFound) {
		t.Errorf("WithHandle(unknown) err = %v, want ErrSessionNotFound", err)
	}
}

func TestRegistryTTLSweep(t *testing.T) {
	var expired int
	r, fc := newTestRegistry(t, RegistryConfig{
		TTL:       time.Minute,
		OnExpired: func(n int) { expired += n },
	})
	h, err := r.Create(testRegistryConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Within the TTL nothing expires.
	fc.t = fc.t.Add(30 * time.Second)
	if n := r.Sweep(); n != 0 {
		t.Fatalf("early sweep expired %d", n)
	}
	// Touching the session refreshes its idle timer.
	if err := r.WithHandle(h.ID, func(*Handle, *Session) error { return nil }); err != nil {
		t.Fatal(err)
	}
	fc.t = fc.t.Add(45 * time.Second) // 45s idle < TTL, but 75s since create
	if n := r.Sweep(); n != 0 {
		t.Fatalf("sweep after refresh expired %d", n)
	}
	fc.t = fc.t.Add(2 * time.Minute)
	if n := r.Sweep(); n != 1 {
		t.Fatalf("sweep expired %d, want 1", n)
	}
	if expired != 1 {
		t.Errorf("OnExpired total = %d, want 1", expired)
	}
	if err := r.WithHandle(h.ID, func(*Handle, *Session) error { return nil }); !errors.Is(err, ErrSessionExpired) {
		t.Errorf("WithHandle(expired) err = %v, want ErrSessionExpired", err)
	}
	if r.Len() != 0 {
		t.Errorf("Len = %d after expiry, want 0", r.Len())
	}
}

func TestRegistryMaxSessions(t *testing.T) {
	r, _ := newTestRegistry(t, RegistryConfig{MaxSessions: 2})
	for i := 0; i < 2; i++ {
		if _, err := r.Create(testRegistryConfig()); err != nil {
			t.Fatalf("Create %d: %v", i, err)
		}
	}
	if _, err := r.Create(testRegistryConfig()); !errors.Is(err, ErrTooManySessions) {
		t.Fatalf("Create at cap err = %v, want ErrTooManySessions", err)
	}
	// Deleting one frees a slot.
	if err := r.Delete("s000001"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create(testRegistryConfig()); err != nil {
		t.Fatalf("Create after delete: %v", err)
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	r, _ := newTestRegistry(t, RegistryConfig{})
	h, err := r.Create(testRegistryConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Hammer one session from many goroutines: the per-handle lock must
	// serialize decide/complete/snapshot (run with -race).
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			var firstErr error
			for i := 0; i < 50; i++ {
				err := r.WithHandle(h.ID, func(_ *Handle, s *Session) error {
					d, err := s.Decide(TaskSpec{Type: g % 2, Deadline: 1e9}, float64(i))
					if err != nil {
						return err
					}
					if d.Verdict == VerdictAccept {
						if _, err := s.Complete(d.TaskID, float64(i)+1); err != nil {
							return err
						}
					}
					s.Snapshot()
					return nil
				})
				if err != nil && firstErr == nil {
					firstErr = err
				}
			}
			done <- firstErr
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Errorf("goroutine: %v", err)
		}
	}
	if got := r.List()[0]; got.InFlight != 0 {
		t.Errorf("in-flight after all completions = %d, want 0", got.InFlight)
	}
}
