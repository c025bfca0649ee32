package sched

import (
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
			avail = avail[:len(avail)-len(asgs)]
		}
	}
}

// BenchmarkSchedPickKPB is one immediate-mode KPB pick on the paper's
// eight machines and twelve task types: arrivals cycle through the types
// on one Context with no machine failing, and every machine holds a queue,
// so a pick is the ranking lookup plus the MCT scan of the best three.
func BenchmarkSchedPickKPB(b *testing.B) {
	const nTypes, nMachines = 12, 8
	means := make([][]float64, nTypes)
	for i := range means {
		means[i] = make([]float64, nMachines)
		for j := range means[i] {
			means[i][j] = 0.5 * float64(1+(5*i+3*j)%11)
		}
	}
	ctx := testFixture(means, 0)
	for j, m := range ctx.Machines {
		for k := 0; k < 3; k++ {
			m.Enqueue(task.New(100+3*j+k, (j+k)%nTypes, 0, 1e9), 0)
		}
	}
	tasks := make([]*task.Task, nTypes)
	h := NewKPB(DefaultKPBPercent)
	for i := range tasks {
		tasks[i] = task.New(i, i, 0, 1e9)
		h.Pick(ctx, tasks[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if h.Pick(ctx, tasks[i%nTypes]) < 0 {
			b.Fatal("no usable machine")
		}
	}
}
