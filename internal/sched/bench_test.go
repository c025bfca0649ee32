package sched

import (
	"slices"
	"testing"

	"prunesim/internal/task"
)

// BenchmarkSchedMapDeferred is one batch mapping event in which the pruner
// defers every assignment: MM re-runs on one Context over the 12 queued
// tasks (4 types) minus those already deferred, until none is left. Six of
// the 8 machines are full and one is idle and empty, so its ready time moves
// with Now and every event starts from a fresh machine state.
func BenchmarkSchedMapDeferred(b *testing.B) {
	means := [][]float64{
		{3, 5, 4, 6, 2.5, 4.5, 3.5, 5.5},
		{6, 2, 5, 3, 4, 2.5, 6.5, 3},
		{1.5, 2.5, 2, 1, 3, 2, 1.5, 2.5},
		{8, 7, 9, 6.5, 7.5, 8.5, 7, 6},
	}
	ctx := testFixture(means, 2)
	for j := 0; j < 7; j++ {
		for k := 0; k < 2-j/6; k++ {
			ctx.Machines[j].Enqueue(task.New(100+2*j+k, (j+k)%4, 0, 1e9), 0)
		}
	}
	tasks := make([]*task.Task, 12)
	for i := range tasks {
		tasks[i] = task.New(i, i%4, 0, 1e9)
	}
	h := NewMM()
	avail := make([]*task.Task, 0, len(tasks))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.Now = float64(i) * 0.5
		avail = append(avail[:0], tasks...)
		for len(avail) > 0 {
			asgs := h.Map(ctx, avail)
			if len(asgs) == 0 {
				b.Fatal("no assignment with free slots")
			}
			avail = slices.DeleteFunc(avail, func(t *task.Task) bool {
				return slices.ContainsFunc(asgs, func(a Assignment) bool { return a.Task == t })
			})
		}
	}
}
