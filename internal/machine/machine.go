// Package machine models the worker nodes of the heterogeneous computing
// system: a non-preemptive processor with a FCFS queue of mapped tasks. Each
// queued task carries its Probabilistic Completion Time (PCT) — the
// convolution of its PET with the PCT of the task ahead of it (Eq. 1) — so
// the pruning mechanism can evaluate every task's chance of meeting its
// deadline (Eq. 2) at any mapping event.
//
// The package owns the bookkeeping the paper's Section II requires: when a
// task is dropped from the middle of a queue, the PCTs of the tasks behind
// it are recomputed from the machine's current state, shrinking their
// compound uncertainty and raising their chance of success.
//
// PCT maintenance is incremental (the paper's Section V-A memoization taken
// to its conclusion): the machine tracks the identity of the anchor
// distribution its PCT chain is built on (anchorKey) and the length of the
// valid prefix (validTo), so Enqueue appends one convolution, DropPending
// reconvolves only from the first drop, DropMissed repairs nothing until the
// chain is next read, and RefreshPCTs is a no-op whenever conditioning the
// running task's completion on the current time yields the same
// distribution as before. All chain arithmetic runs through the
// in-place pmf kernel with machine-owned buffers recycled via a
// pmf.Scratch, so steady-state operation does not allocate.
//
// Ownership: every *pmf.PMF reachable from a Machine (queue entry PCTs and
// the results of LastPCT) is owned by the machine. Callers may read them
// until the machine's next state-changing call, and must never mutate them.
package machine

import (
	"fmt"
	"math"
	"slices"

	"prunesim/internal/pmf"
	"prunesim/internal/task"
)

// PETLookup resolves the execution-time PMF of a task type on this machine.
// A Machine is bound to one machine type, so the lookup takes only the task
// type.
type PETLookup func(taskType int) *pmf.PMF

// Entry is a mapped task waiting in a machine queue together with its
// current PCT. The PCT is owned by the machine (see the package comment).
type Entry struct {
	Task *task.Task
	PCT  *pmf.PMF
}

// anchorKind classifies the distribution a PCT chain is anchored on.
type anchorKind uint8

const (
	// anchorNone marks an unknown anchor: the chain must be rebuilt before
	// use.
	anchorNone anchorKind = iota
	// anchorRaw is the running task's unconditioned completion PMF.
	anchorRaw
	// anchorCond is the running task's completion PMF conditioned at a cut
	// bin (the ConditionMin of baselinePCT).
	anchorCond
	// anchorTail is the all-tail distribution produced by conditioning past
	// the end of a support that carries tail mass.
	anchorTail
	// anchorDelta is a point mass at a bin (idle machine, or conditioning
	// past a tail-free support).
	anchorDelta
)

// anchorKey identifies an anchor distribution exactly: two equal keys (for
// one machine) always denote bitwise-identical anchors, so a chain built on
// a matching key never needs reconvolution. bin carries the conditioning
// cut or delta bin; bin2 disambiguates the rare conditioning branches that
// collapse to a point mass at the query time rather than at the cut.
type anchorKey struct {
	kind      anchorKind
	runID     int
	bin, bin2 int
}

// Machine is one worker. It is not safe for concurrent use; the simulator
// drives it from a single goroutine per trial (trials parallelize across
// machines-of-the-simulation, not within one).
type Machine struct {
	id       int
	typeIdx  int
	pet      PETLookup
	binWidth float64

	running           *task.Task
	runningCompletion *pmf.PMF // absolute-time completion PMF of the running task
	pending           []Entry
	down              bool // failed and not yet rejoined

	// tailEps, when positive, compresses every chain PCT right after it is
	// convolved (pmf.CompressTail): long streaming trials keep supports
	// bounded at the price of an ε-conservative chance estimate.
	tailEps float64

	// Incremental-PCT state. Invariant: pending[:validTo] hold exactly the
	// PCTs a full reconvolution from the anchor identified by chainKey
	// would produce (bitwise). validTo may sit anywhere in [0, len]; the
	// stale suffix is rebuilt on the next read (refreshIfStale). chainAt is
	// the time chainKey was derived at, which anchorFor needs to rebuild
	// the anchor itself.
	chainKey anchorKey
	chainAt  float64
	validTo  int

	// minDeadline is a lower bound on the deadlines of the pending tasks:
	// while now <= minDeadline no pending task has missed, so DropMissed
	// returns without scanning. Removals keep it a valid bound.
	minDeadline float64

	// scratch recycles PMF buffers; nil means allocate (still correct).
	scratch *pmf.Scratch

	// anchorBuf caches the computed anchor distribution for anchorBufKey.
	anchorBuf    *pmf.PMF
	anchorBufKey anchorKey

	// ver counts changes to what the caches below derive from: chain
	// mutations, and moves of the anchor an empty queue's LastPCT rests on
	// (cacheKey, see syncCacheKey). Each cache entry is valid only for the
	// version it recorded.
	ver      uint64
	cacheKey anchorKey

	meanOK  bool
	meanVer uint64
	mean    float64

	// chance memoizes the if-enqueued PCT per task type (index), so a
	// deferral pattern that queries several types between mutations
	// convolves each at most once.
	chance []chanceMemo
}

// minChanceTypes is the chance memo's first capacity, in task types: the
// paper's twelve types then need one allocation per machine, not a chain of
// growths.
const minChanceTypes = 16

// chanceMemo is one task type's if-enqueued PCT, valid while the machine's
// version still matches. A nil pct is never valid.
type chanceMemo struct {
	ver uint64
	pct *pmf.PMF
}

// New constructs an idle machine of the given machine type.
func New(id, typeIdx int, lookup PETLookup, binWidth float64) *Machine {
	if lookup == nil {
		panic("machine: nil PET lookup")
	}
	if !(binWidth > 0) || math.IsInf(binWidth, 1) {
		panic("machine: bin width must be positive and finite")
	}
	return &Machine{id: id, typeIdx: typeIdx, pet: lookup, binWidth: binWidth}
}

// SetScratch attaches a buffer pool for the machine's PMF arithmetic. The
// scratch may be shared by all machines of one simulation trial (they run
// on one goroutine) but must not be shared across goroutines. A nil scratch
// is valid and means plain allocation.
//
// Detaching (s == nil) returns the machine's cache buffers — the chance
// memo and the anchor buffer — to the scratch it was using, so pooled
// storage is not stranded on a machine about to be discarded.
func (m *Machine) SetScratch(s *pmf.Scratch) {
	if s == nil && m.scratch != nil {
		for i := range m.chance {
			m.scratch.Put(m.chance[i].pct)
			m.chance[i] = chanceMemo{}
		}
		m.scratch.Put(m.anchorBuf)
		m.anchorBuf, m.anchorBufKey = nil, anchorKey{}
	}
	m.scratch = s
}

// SetTailEps configures tail-mass-ε support compression: after every chain
// convolution the resulting PCT drops its largest suffix with mass <= eps
// into the tail bucket. Tail mass misses every deadline, so chance-of-
// success estimates become at most eps lower — conservative, never
// optimistic — while supports stay small over million-task trials. eps must
// be in [0, 1); 0 (the default) disables compression. The running task's
// completion belief is never compressed: it anchors conditioning and its
// support is a single PET wide.
//
// Compression is applied identically at every site that extends or repairs
// the chain, so the incremental invariant — pending[:validTo] bitwise-equal
// to a full reconvolution — holds for any eps. Changing eps mid-trial
// invalidates the chain.
func (m *Machine) SetTailEps(eps float64) {
	if eps < 0 || eps >= 1 || math.IsNaN(eps) {
		panic(fmt.Sprintf("machine %d: tail eps %v out of range [0, 1)", m.id, eps))
	}
	if eps == m.tailEps {
		return
	}
	m.tailEps = eps
	m.chainKey = anchorKey{}
	m.validTo = 0
	m.bumpVer()
}

// TailEps returns the configured tail-compression epsilon.
func (m *Machine) TailEps() float64 { return m.tailEps }

// compressed applies the configured tail-ε compression to a just-convolved
// chain PCT in place and returns it. Every chain-convolution site must route
// through this helper — a single uncompressed link would break the
// bitwise-rebuild invariant.
func (m *Machine) compressed(d *pmf.PMF) *pmf.PMF {
	if m.tailEps > 0 {
		d.CompressTailInPlace(m.tailEps)
	}
	return d
}

// ID returns the machine's identifier.
func (m *Machine) ID() int { return m.id }

// TypeIndex returns the machine-type index into the PET matrix.
func (m *Machine) TypeIndex() int { return m.typeIdx }

// Idle reports whether no task is executing.
func (m *Machine) Idle() bool { return m.running == nil }

// Running returns the executing task, or nil.
func (m *Machine) Running() *task.Task { return m.running }

// PendingCount returns the number of mapped-but-not-started tasks.
func (m *Machine) PendingCount() int { return len(m.pending) }

// QueueLen returns pending count plus one if a task is running — the total
// load the paper's MCT-style heuristics reason about.
func (m *Machine) QueueLen() int {
	n := len(m.pending)
	if m.running != nil {
		n++
	}
	return n
}

// Pending returns the queue entries in FCFS order. The slice and the entry
// PCTs are owned by the machine: callers must not mutate them, and the
// PCTs are valid only until the next state-changing call.
func (m *Machine) Pending() []Entry {
	m.refreshIfStale()
	return m.pending
}

// Version returns a counter that moves on every change that can move
// PendingCount, Down or ExpectedReady's answer. With a non-empty queue
// ExpectedReady answers the same at every now until Version moves; with an
// empty queue it reads the anchor at now, so a kept read holds only at the
// same now. A read may itself move Version, so take it after the read.
func (m *Machine) Version() uint64 { return m.ver }

// bumpVer invalidates the derived-value caches; the chance memo entries
// lapse through their version compare.
func (m *Machine) bumpVer() {
	m.ver++
	m.meanOK = false
}

// anchorKeyAt returns the identity of the distribution baselinePCT(now)
// would produce: the machine-free-time anchor of Eq. 1. Equal keys imply
// bitwise-equal anchors, which is what lets RefreshPCTs skip reconvolution
// when nothing observable changed.
func (m *Machine) anchorKeyAt(now float64) anchorKey {
	deltaBin := int(math.Round(now / m.binWidth))
	if m.running == nil {
		return anchorKey{kind: anchorDelta, bin: deltaBin}
	}
	rc := m.runningCompletion
	cut := int(math.Ceil(now/m.binWidth - 1e-9))
	start := cut - rc.Origin()
	switch {
	case start <= 0:
		// Conditioning keeps the whole support: the anchor is the raw
		// completion PMF.
		return anchorKey{kind: anchorRaw, runID: m.running.ID}
	case start >= rc.NumBins():
		if rc.Tail() > 0 {
			return anchorKey{kind: anchorTail, runID: m.running.ID, bin: cut}
		}
		return anchorKey{kind: anchorDelta, bin: deltaBin}
	default:
		// The conditioned distribution depends only on cut — except in the
		// degenerate no-mass-left branch, which collapses to a point mass
		// at the query time; bin2 keeps the key exact there too.
		return anchorKey{kind: anchorCond, runID: m.running.ID, bin: cut, bin2: deltaBin}
	}
}

// anchorFor returns the anchor distribution for key, computing it into the
// machine's cached anchor buffer when needed. now must be the time the key
// was derived from. The result is machine-owned and read-only.
func (m *Machine) anchorFor(key anchorKey, now float64) *pmf.PMF {
	if key.kind == anchorRaw {
		return m.runningCompletion
	}
	if m.anchorBuf != nil && m.anchorBufKey == key {
		return m.anchorBuf
	}
	if m.anchorBuf == nil {
		m.anchorBuf = m.scratch.Get()
	}
	if m.running != nil {
		pmf.ConditionMinInto(m.anchorBuf, m.runningCompletion, now)
	} else {
		pmf.DeltaInto(m.anchorBuf, now, m.binWidth)
	}
	m.anchorBufKey = key
	return m.anchorBuf
}

// reconvolve recomputes the PCTs of pending[start:] anchored on prev
// (Eq. 1 applied down the queue), reusing each entry's buffer in place,
// and marks the chain fully valid.
func (m *Machine) reconvolve(start int, prev *pmf.PMF) {
	for i := start; i < len(m.pending); i++ {
		e := &m.pending[i]
		e.PCT = m.compressed(pmf.ConvolveInto(e.PCT, prev, m.pet(e.Task.Type)))
		prev = e.PCT
	}
	m.validTo = len(m.pending)
	if start < len(m.pending) {
		m.bumpVer()
	}
}

// refreshIfStale rebuilds the stale suffix pending[validTo:]. A rebuild
// from the head uses the anchor chainKey names, as of chainAt. With no
// explicit anchor (after Complete, SetPET, SetTailEps or Fail) it falls
// back to the running task's completion distribution as of its start, or,
// on an idle machine, a point mass at the head's arrival; neither is
// conditioned on the current time. The idle case is a modelling
// deviation: after a Complete at time now the head cannot start before
// now, yet its PCT starts at its arrival, so the reads before the next
// StartNext (the mapping event's DropPending sweep, batch deferral
// checks) see chances that are too high. ROADMAP lists the fix, which
// changes results. Callers that need "as of now" precision call
// RefreshPCTs(now).
func (m *Machine) refreshIfStale() {
	if m.validTo >= len(m.pending) {
		return
	}
	if start := m.validTo; start > 0 {
		m.reconvolve(start, m.pending[start-1].PCT)
		return
	}
	if m.chainKey.kind == anchorNone {
		if m.running != nil {
			m.chainKey, m.chainAt = anchorKey{kind: anchorRaw, runID: m.running.ID}, m.running.Start
		} else {
			t := m.pending[0].Task.Arrival
			m.chainKey, m.chainAt = anchorKey{kind: anchorDelta, bin: int(math.Round(t / m.binWidth))}, t
		}
	}
	m.reconvolve(0, m.anchorFor(m.chainKey, m.chainAt))
}

// LastPCT returns the completion-time PMF of the last task in the queue (or
// the machine-free distribution if the queue is empty), evaluated at time
// now. This is the left operand of Eq. 1 for an arriving task. The result
// is machine-owned and read-only.
func (m *Machine) LastPCT(now float64) *pmf.PMF {
	m.refreshIfStale()
	if n := len(m.pending); n > 0 {
		return m.pending[n-1].PCT
	}
	return m.anchorFor(m.anchorKeyAt(now), now)
}

// ExpectedReady returns the expected time at which all currently queued work
// finishes — the scalar the deterministic heuristics (MCT, MM, ...) build
// their expected completion times on. The value is cached between queue
// mutations because every heuristic scans every machine at every mapping
// event.
func (m *Machine) ExpectedReady(now float64) float64 {
	m.refreshIfStale()
	m.syncCacheKey(now)
	if m.meanOK && m.meanVer == m.ver {
		return m.mean
	}
	v := m.LastPCT(now).Mean()
	m.meanOK, m.meanVer, m.mean = true, m.ver, v
	return v
}

// syncCacheKey folds the empty-queue anchor into ver: while the queue is
// empty, LastPCT(now) is the anchor at now, so a move of that anchor bumps
// ver and lapses every cache entry recorded under the old one.
func (m *Machine) syncCacheKey(now float64) {
	var akey anchorKey
	if len(m.pending) == 0 {
		akey = m.anchorKeyAt(now)
	}
	if akey != m.cacheKey {
		m.cacheKey = akey
		m.bumpVer()
	}
}

// pctIfEnqueued returns the PCT a task of the given type would get if
// appended now (Eq. 1). The result lives in that type's chance-memo buffer
// and stays valid until ver moves, so repeated queries for any mix of
// types between mutations — batch deferral asks every machine about
// several types per task — convolve once per type, and the Enqueue that
// follows a query reuses its convolution.
//
// The PET is looked up only on a memo miss; a type with no PET panics there.
// A hit needs no lookup: the memo was built from a PET, and SetPET moves
// ver.
func (m *Machine) pctIfEnqueued(taskType int, now float64) *pmf.PMF {
	m.syncCacheKey(now)
	if taskType >= len(m.chance) {
		m.chance = slices.Grow(m.chance, max(taskType+1, minChanceTypes)-len(m.chance))[:taskType+1]
	}
	c := &m.chance[taskType]
	if c.pct != nil && c.ver == m.ver {
		return c.pct
	}
	p := m.pet(taskType)
	if p == nil {
		panic(fmt.Sprintf("machine %d: no PET for task type %d", m.id, taskType))
	}
	last := m.LastPCT(now)
	if c.pct == nil {
		c.pct = m.scratch.Get()
	}
	m.compressed(pmf.ConvolveInto(c.pct, last, p))
	c.ver = m.ver
	return c.pct
}

// ChanceIfEnqueued returns the chance of success (Eq. 2) a task of the given
// type and deadline would have if appended to this queue now.
func (m *Machine) ChanceIfEnqueued(taskType int, deadline, now float64) float64 {
	return m.pctIfEnqueued(taskType, now).ProbLE(deadline)
}

// Enqueue maps a task onto this machine, computing its PCT per Eq. 1. The
// task's status and machine assignment are updated.
func (m *Machine) Enqueue(t *task.Task, now float64) {
	pct := m.pctIfEnqueued(t.Type, now)
	// This type's memo buffer becomes the entry's PCT; hand over ownership.
	m.chance[t.Type].pct = nil
	if len(m.pending) == 0 {
		// A fresh chain starts on the anchor the PCT was just built from.
		m.chainKey, m.chainAt = m.anchorKeyAt(now), now
		m.minDeadline = t.Deadline
	} else if t.Deadline < m.minDeadline {
		m.minDeadline = t.Deadline
	}
	t.Status = task.StatusMachineQueued
	t.Machine = m.id
	m.pending = append(m.pending, Entry{Task: t, PCT: pct})
	m.validTo = len(m.pending)
	m.bumpVer()
}

// StartNext begins executing the head of the queue if the machine is idle.
// It returns the started task, or nil if the machine is busy or the queue is
// empty. The caller (the simulator) samples the actual duration and
// schedules the completion event; the machine only tracks the scheduler's
// probabilistic belief about the completion time.
func (m *Machine) StartNext(now float64) *task.Task {
	if m.running != nil || len(m.pending) == 0 {
		return nil
	}
	head := m.pending[0]
	copy(m.pending, m.pending[1:])
	m.pending[len(m.pending)-1] = Entry{}
	m.pending = m.pending[:len(m.pending)-1]
	m.running = head.Task
	m.running.Status = task.StatusRunning
	m.running.Start = now
	// The scheduler's belief about the completion time: start + PET.
	d := pmf.DeltaInto(m.scratch.Get(), now, m.binWidth)
	m.runningCompletion = pmf.ConvolveInto(m.scratch.Get(), d, m.pet(head.Task.Type))
	m.scratch.Put(d)
	m.scratch.Put(head.PCT)
	// Remaining pending PCTs are now anchored on the new running task.
	m.chainKey, m.chainAt = anchorKey{kind: anchorRaw, runID: m.running.ID}, now
	m.validTo = 0
	m.bumpVer()
	return m.running
}

// Complete finishes the running task at time now and returns it. The task's
// terminal status is set from its deadline. It panics if no task is running.
func (m *Machine) Complete(now float64) *task.Task {
	if m.running == nil {
		panic(fmt.Sprintf("machine %d: Complete with no running task", m.id))
	}
	t := m.running
	t.Completion = now
	if now <= t.Deadline {
		t.Status = task.StatusCompletedOnTime
	} else {
		t.Status = task.StatusCompletedLate
	}
	m.running = nil
	m.scratch.Put(m.runningCompletion)
	m.runningCompletion = nil
	m.chainKey = anchorKey{}
	m.validTo = 0
	m.bumpVer()
	return t
}

// DropMissed removes every pending task whose deadline has passed
// (Task.Missed(now)), in FCFS order, appends them to dst and returns the
// extended slice — the reactive sweep of Figure 5 step 1. Like DropPending
// it leaves the dropped tasks' status to the caller.
//
// Its predicate reads no PCT, so it does no PET lookup and no convolution:
// the survivors from the first drop on are marked stale and rebuilt on the
// next read, on the same anchor an eager DropPending would have used (the
// anchor at now when the head itself was dropped). While now is at or below
// the pending-deadline watermark it returns without scanning.
func (m *Machine) DropMissed(now float64, dst []*task.Task) []*task.Task {
	if len(m.pending) == 0 || now <= m.minDeadline {
		return dst
	}
	first := -1
	lo := math.Inf(1)
	kept := m.pending[:0]
	for i, e := range m.pending {
		if e.Task.Missed(now) {
			if first < 0 {
				first = i
			}
			e.Task.Machine = m.id // preserved for accounting
			dst = append(dst, e.Task)
			m.scratch.Put(e.PCT)
			continue
		}
		if e.Task.Deadline < lo {
			lo = e.Task.Deadline
		}
		kept = append(kept, e)
	}
	m.minDeadline = lo
	if first < 0 {
		return dst
	}
	clear(m.pending[len(kept):])
	m.pending = kept
	if first == 0 {
		m.chainKey, m.chainAt = m.anchorKeyAt(now), now
	}
	m.validTo = min(m.validTo, first)
	m.bumpVer()
	return dst
}

// DropPending removes every pending task for which shouldDrop returns true,
// in FCFS order, and recomputes the PCTs of the survivors behind a drop from
// the machine's current state (the paper's queue-shortening effect: dropped
// tasks no longer contribute to the compound uncertainty of those behind
// them). Dropped tasks are appended to dst, which is returned; their status
// is NOT modified — the caller decides between reactive and proactive drop
// accounting. With a reused dst it allocates nothing in steady state.
//
// shouldDrop sees each entry's PCT reflecting any drops already made ahead
// of it, and must not call back into the machine; that is why the repair is
// eager here, unlike DropMissed's. Entries ahead of the first drop keep
// their memoized PCTs (the paper's Section V-A notes memoization of partial
// convolution results keeps the pruner's overhead negligible; a sweep that
// drops nothing over a valid chain performs no convolutions at all).
func (m *Machine) DropPending(now float64, shouldDrop func(e Entry) bool, dst []*task.Task) []*task.Task {
	if len(m.pending) == 0 {
		return dst
	}
	m.refreshIfStale()
	var prev *pmf.PMF // anchor for recomputation; set at the first drop
	dirty := false
	kept := m.pending[:0]
	for _, e := range m.pending {
		if dirty {
			e.PCT = m.compressed(pmf.ConvolveInto(e.PCT, prev, m.pet(e.Task.Type)))
		}
		if shouldDrop(e) {
			if !dirty {
				dirty = true
				if len(kept) > 0 {
					prev = kept[len(kept)-1].PCT
				} else {
					key := m.anchorKeyAt(now)
					prev = m.anchorFor(key, now)
					m.chainKey, m.chainAt = key, now
				}
			}
			e.Task.Machine = m.id // preserved for accounting
			dst = append(dst, e.Task)
			m.scratch.Put(e.PCT)
			continue
		}
		kept = append(kept, e)
		if dirty {
			prev = e.PCT
		}
	}
	// Zero the vacated slots so dropped tasks are not retained.
	clear(m.pending[len(kept):])
	m.pending = kept
	m.validTo = len(kept)
	if dirty {
		m.bumpVer()
	}
	return dst
}

// RefreshPCTs recomputes the pending PCTs anchored at time now. Mapping
// events do not call it: the queries they make (ChanceIfEnqueued,
// DropPending) repair the chain themselves. Tests and
// BenchmarkMachineRefreshPCTs use it to anchor the chain at an exact time.
// The work is incremental: when the anchor at now is identical to the one
// the chain was built on, only entries past the valid prefix are
// reconvolved — often none at all.
func (m *Machine) RefreshPCTs(now float64) {
	key := m.anchorKeyAt(now)
	if key == m.chainKey && m.validTo == len(m.pending) {
		return
	}
	start := 0
	if key == m.chainKey {
		start = m.validTo
	} else {
		m.chainKey, m.chainAt = key, now
	}
	var prev *pmf.PMF
	if start > 0 {
		prev = m.pending[start-1].PCT
	} else {
		prev = m.anchorFor(key, now)
	}
	m.reconvolve(start, prev)
}

// Down reports whether the machine has failed and not yet rejoined.
// Heuristics must not map onto a down machine; the simulator never starts
// work on one.
func (m *Machine) Down() bool { return m.down }

// Fail takes the machine down, returning every task it was holding — the
// running task first, then the pending queue in FCFS order — so the caller
// can requeue them elsewhere. The orphans' status and machine assignment
// are NOT modified (mirroring DropPending): the simulator decides what
// requeueing means. All PCT state is discarded; a later Rejoin starts from
// an empty chain, so the incremental invariant trivially matches a
// from-scratch rebuild. It panics if the machine is already down.
func (m *Machine) Fail() []*task.Task {
	if m.down {
		panic(fmt.Sprintf("machine %d: Fail while already down", m.id))
	}
	var orphans []*task.Task
	if m.running != nil {
		orphans = append(orphans, m.running)
		m.running = nil
		m.scratch.Put(m.runningCompletion)
		m.runningCompletion = nil
	}
	for i := range m.pending {
		orphans = append(orphans, m.pending[i].Task)
		m.scratch.Put(m.pending[i].PCT)
		m.pending[i] = Entry{}
	}
	m.pending = m.pending[:0]
	m.chainKey = anchorKey{}
	m.validTo = 0
	// An orphaned task may run on this machine again later with a cut bin
	// that collides with a pre-fail cached anchor; drop the anchor cache so
	// the (kind, runID, bin) key can never alias across the failure.
	m.anchorBufKey = anchorKey{}
	m.down = true
	m.bumpVer()
	return orphans
}

// Rejoin brings a failed machine back up, idle and empty. It panics if the
// machine is not down.
func (m *Machine) Rejoin() {
	if !m.down {
		panic(fmt.Sprintf("machine %d: Rejoin while up", m.id))
	}
	m.down = false
	m.bumpVer()
}

// SetPET swaps the machine's execution-time lookup — degradation or
// restoration changes what convolution operand every queued task
// contributes — and invalidates the whole PCT chain, since each pending PCT
// was convolved from the old distributions. The running task's completion
// belief is deliberately kept: execution is non-preemptive and its
// distribution was fixed at start time.
func (m *Machine) SetPET(lookup PETLookup) {
	if lookup == nil {
		panic(fmt.Sprintf("machine %d: SetPET with nil lookup", m.id))
	}
	m.pet = lookup
	m.chainKey = anchorKey{}
	m.validTo = 0
	m.bumpVer()
}

// String summarizes the machine state.
func (m *Machine) String() string {
	return fmt.Sprintf("machine{id=%d type=%d down=%v running=%v pending=%d}",
		m.id, m.typeIdx, m.down, m.running != nil, len(m.pending))
}
