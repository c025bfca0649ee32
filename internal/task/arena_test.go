package task

import "testing"

func TestArenaNewMatchesNew(t *testing.T) {
	a := NewArena()
	got := a.New(7, 3, 1.5, 9.25)
	want := New(7, 3, 1.5, 9.25)
	if *got != *want {
		t.Fatalf("arena task %+v, want %+v", *got, *want)
	}
}

func TestArenaRecycleReusesAndResets(t *testing.T) {
	a := NewArena()
	t1 := a.New(0, 1, 2, 3)
	t1.Status = StatusCompletedLate
	t1.Machine = 4
	t1.Start, t1.Completion = 5, 6
	t1.Deferrals = 2
	t1.Value = 7
	a.Recycle(t1)
	t2 := a.New(8, 2, 10, 20)
	if t2 != t1 {
		t.Fatalf("expected the recycled struct to be reused")
	}
	want := New(8, 2, 10, 20)
	if *t2 != *want {
		t.Fatalf("recycled task not reset: %+v, want %+v", *t2, *want)
	}
}

func TestArenaLiveTracksInFlight(t *testing.T) {
	a := NewArena()
	var ts []*Task
	for i := 0; i < 10; i++ {
		ts = append(ts, a.New(i, 0, 0, 1))
	}
	if a.Live() != 10 {
		t.Fatalf("live = %d, want 10", a.Live())
	}
	for _, tk := range ts[:4] {
		a.Recycle(tk)
	}
	if a.Live() != 6 {
		t.Fatalf("live = %d, want 6", a.Live())
	}
	a.Recycle(nil) // no-op
	if a.Live() != 6 {
		t.Fatalf("live after nil recycle = %d, want 6", a.Live())
	}
}

func TestArenaCrossesBlockBoundary(t *testing.T) {
	a := NewArena()
	seen := make(map[*Task]bool)
	for i := 0; i < 3*arenaBlock; i++ {
		tk := a.New(i, 0, float64(i), float64(i)+1)
		if seen[tk] {
			t.Fatalf("task %d aliases a live task", i)
		}
		seen[tk] = true
		if tk.ID != i || tk.Machine != -1 || tk.Value != 1 {
			t.Fatalf("task %d misinitialized: %+v", i, *tk)
		}
	}
}
