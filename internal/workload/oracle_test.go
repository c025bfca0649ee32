package workload

import (
	"slices"

	"prunesim/internal/pet"
	"prunesim/internal/randx"
	"prunesim/internal/task"
)

// generateSorted is the reference generator the Source equivalence tests
// compare against: it draws every type's whole arrival stream on the same
// per-(trial, type) RNG discipline, then stable-sorts the lot by (Arrival,
// Type) and assigns IDs in sorted order — no heap, no lookahead.
func generateSorted(m *pet.Matrix, cfg Config) ([]*task.Task, error) {
	model, err := NewArrivalModel(cfg, m.NumTaskTypes())
	if err != nil {
		return nil, err
	}
	return generateSortedWith(m, model, cfg), nil
}

// generateSortedWith is generateSorted with a pre-compiled arrival model.
func generateSortedWith(m *pet.Matrix, model ArrivalModel, cfg Config) []*task.Task {
	var all []*task.Task
	for tt := 0; tt < m.NumTaskTypes(); tt++ {
		rng := randx.Split(cfg.Seed, uint64(cfg.Trial)*1000003+uint64(tt))
		stream := model.Stream(tt, cfg.Trial, rng)
		for {
			t, ok := stream.Next()
			if !ok {
				break
			}
			beta := rng.Uniform(cfg.BetaLo, cfg.BetaHi)
			tk := task.New(0, tt, t, t+m.TaskAvg(tt)+beta*m.AvgAll())
			if cfg.ValueHi > 0 {
				tk.Value = rng.Uniform(cfg.ValueLo, cfg.ValueHi)
			}
			all = append(all, tk)
		}
	}
	// Per-type streams are nondecreasing in time, so stability keeps equal
	// (Arrival, Type) pairs in stream order.
	slices.SortStableFunc(all, func(a, b *task.Task) int {
		switch {
		case a.Arrival < b.Arrival:
			return -1
		case a.Arrival > b.Arrival:
			return 1
		}
		return a.Type - b.Type
	})
	for i, t := range all {
		t.ID = i
	}
	return all
}
