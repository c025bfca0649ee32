// Streaming workload generation. A Source yields one trial's tasks in
// (arrival, type) order without ever holding more than one pending arrival
// per task type: the per-type arrival streams merge through a small k-way
// heap ordered by (arrival, type), and because each stream is
// nondecreasing in time the merge is the stable (Arrival, Type) sort of
// all the trial's arrivals. GenerateWith materializes a trial by draining
// its Source.
//
// The RNG discipline pins a trial bit for bit: each type's deadline-beta
// and value draws share one per-(trial, type) stream with that type's
// arrival draws, interleaved as N1, beta1, value1, N2, beta2, ... — the
// Source draws beta and value for the popped arrival before pulling the
// type's next arrival — so a (seed, trial) pair fixes every task whatever
// order the types are consumed in.
package workload

import (
	"prunesim/internal/pet"
	"prunesim/internal/randx"
	"prunesim/internal/task"
)

// Source streams one workload trial in arrival order. Tasks come from an
// internal arena; callers that are done with a task should hand it back via
// Recycle so a million-task trial reuses a bounded set of structs. A Source
// is single-use and not safe for concurrent use.
type Source struct {
	cfg    Config
	matrix *pet.Matrix
	arena  *task.Arena

	types []typeStream
	heap  []int // heap of type indices, ordered by (pending arrival, type)
	next  int   // next task ID
}

// typeStream is one task type's arrival stream with its one-element
// lookahead.
type typeStream struct {
	stream  ArrivalStream
	rng     *randx.RNG
	pending float64 // next arrival time (valid while on the heap)
}

// NewSource validates cfg, compiles its arrival model and returns a
// streaming source for the trial (cfg.Seed, cfg.Trial) pins.
func NewSource(m *pet.Matrix, cfg Config) (*Source, error) {
	model, err := NewArrivalModel(cfg, m.NumTaskTypes())
	if err != nil {
		return nil, err
	}
	return NewSourceWith(m, model, cfg), nil
}

// NewSourceWith is NewSource with a pre-compiled arrival model; sweeps
// compile the model once and build one Source per trial. The model must
// have been built from cfg (and the matrix's type count) via
// NewArrivalModel.
func NewSourceWith(m *pet.Matrix, model ArrivalModel, cfg Config) *Source {
	nt := m.NumTaskTypes()
	s := &Source{cfg: cfg, matrix: m, arena: task.NewArena(), types: make([]typeStream, nt)}
	for tt := 0; tt < nt; tt++ {
		// Independent sub-stream per (trial, type): arrival processes of
		// different types never interfere. Arrivals, betas and values of
		// one type share the type's RNG.
		rng := randx.Split(cfg.Seed, uint64(cfg.Trial)*1000003+uint64(tt))
		ts := &s.types[tt]
		ts.rng = rng
		ts.stream = model.Stream(tt, cfg.Trial, rng)
		if t, ok := ts.stream.Next(); ok {
			ts.pending = t
			s.push(tt)
		}
	}
	return s
}

// Next yields the next task in (Arrival, Type) order, or ok == false when
// the trial's workload is exhausted. IDs are assigned sequentially from 0 in
// yield order.
func (s *Source) Next() (*task.Task, bool) {
	if len(s.heap) == 0 {
		return nil, false
	}
	tt := s.heap[0]
	ts := &s.types[tt]
	arrival := ts.pending
	// Draw order within the type's stream: beta (and value) for this
	// arrival, then the next arrival.
	beta := ts.rng.Uniform(s.cfg.BetaLo, s.cfg.BetaHi)
	deadline := arrival + s.matrix.TaskAvg(tt) + beta*s.matrix.AvgAll()
	tk := s.arena.New(s.next, tt, arrival, deadline)
	s.next++
	if s.cfg.ValueHi > 0 {
		tk.Value = ts.rng.Uniform(s.cfg.ValueLo, s.cfg.ValueHi)
	}
	if t, ok := ts.stream.Next(); ok {
		// Arrival streams are nondecreasing, so the refreshed root can only
		// sink.
		ts.pending = t
		s.down(0)
	} else {
		n := len(s.heap) - 1
		s.heap[0] = s.heap[n]
		s.heap = s.heap[:n]
		if n > 0 {
			s.down(0)
		}
	}
	return tk, true
}

// Recycle returns a retired task to the source's arena. The simulator calls
// this the moment a task's outcome has been tallied; the struct is reused
// for an upcoming arrival.
func (s *Source) Recycle(t *task.Task) { s.arena.Recycle(t) }

// Live reports how many yielded tasks have not been recycled — the
// in-flight window a memory-bounded consumer should keep small.
func (s *Source) Live() int { return s.arena.Live() }

// less orders heap entries by (pending arrival, type index).
func (s *Source) less(a, b int) bool {
	ta, tb := s.types[a].pending, s.types[b].pending
	if ta != tb {
		return ta < tb
	}
	return a < b
}

func (s *Source) push(tt int) {
	s.heap = append(s.heap, tt)
	i := len(s.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(s.heap[i], s.heap[parent]) {
			return
		}
		s.heap[i], s.heap[parent] = s.heap[parent], s.heap[i]
		i = parent
	}
}

func (s *Source) down(i int) {
	n := len(s.heap)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		least := l
		if r := l + 1; r < n && s.less(s.heap[r], s.heap[l]) {
			least = r
		}
		if !s.less(s.heap[least], s.heap[i]) {
			return
		}
		s.heap[i], s.heap[least] = s.heap[least], s.heap[i]
		i = least
	}
}
