package machine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"prunesim/internal/pmf"
	"prunesim/internal/task"
)

// This file proves the incremental-PCT machine equivalent to a reference
// implementation that reconvolves the full queue on every refresh — a
// direct port of the pre-incremental machine code, written against the
// immutable pmf API. Both are driven through randomized operation
// sequences and compared bitwise after every step: because the in-place
// pmf kernel is bitwise-identical to the immutable one, any divergence
// would expose a caching or chain-invalidation bug, not float noise.

// refMachine is the full-recompute reference.
type refMachine struct {
	pet      PETLookup
	binWidth float64
	running  *task.Task
	runComp  *pmf.PMF
	pending  []Entry
	stale    bool
	down     bool
}

func (m *refMachine) baselinePCT(now float64) *pmf.PMF {
	if m.running == nil {
		return pmf.Delta(now, m.binWidth)
	}
	return m.runComp.ConditionMin(now)
}

func (m *refMachine) refreshIfStale() {
	if !m.stale {
		return
	}
	var prev *pmf.PMF
	if m.running != nil {
		prev = m.runComp
	} else if len(m.pending) > 0 {
		prev = pmf.Delta(m.pending[0].Task.Arrival, m.binWidth)
	} else {
		m.stale = false
		return
	}
	for i := range m.pending {
		pct := prev.Convolve(m.pet(m.pending[i].Task.Type))
		m.pending[i].PCT = pct
		prev = pct
	}
	m.stale = false
}

func (m *refMachine) lastPCT(now float64) *pmf.PMF {
	m.refreshIfStale()
	if n := len(m.pending); n > 0 {
		return m.pending[n-1].PCT
	}
	return m.baselinePCT(now)
}

func (m *refMachine) expectedReady(now float64) float64 {
	return m.lastPCT(now).Mean()
}

func (m *refMachine) chanceIfEnqueued(taskType int, deadline, now float64) float64 {
	return m.lastPCT(now).Convolve(m.pet(taskType)).ProbLE(deadline)
}

func (m *refMachine) enqueue(t *task.Task, now float64) {
	pct := m.lastPCT(now).Convolve(m.pet(t.Type))
	t.Status = task.StatusMachineQueued
	m.pending = append(m.pending, Entry{Task: t, PCT: pct})
}

func (m *refMachine) startNext(now float64) *task.Task {
	if m.running != nil || len(m.pending) == 0 {
		return nil
	}
	m.refreshIfStale()
	head := m.pending[0]
	copy(m.pending, m.pending[1:])
	m.pending = m.pending[:len(m.pending)-1]
	m.running = head.Task
	m.running.Start = now
	m.runComp = pmf.Delta(now, m.binWidth).Convolve(m.pet(head.Task.Type))
	m.stale = true
	return m.running
}

func (m *refMachine) complete(now float64) *task.Task {
	t := m.running
	t.Completion = now
	m.running = nil
	m.runComp = nil
	m.stale = true
	return t
}

func (m *refMachine) dropPending(now float64, shouldDrop func(e Entry) bool) []*task.Task {
	if len(m.pending) == 0 {
		return nil
	}
	m.refreshIfStale()
	var dropped []*task.Task
	var prev *pmf.PMF
	dirty := false
	kept := m.pending[:0]
	for _, e := range m.pending {
		if dirty {
			e.PCT = prev.Convolve(m.pet(e.Task.Type))
		}
		if shouldDrop(e) {
			if !dirty {
				dirty = true
				if len(kept) > 0 {
					prev = kept[len(kept)-1].PCT
				} else {
					prev = m.baselinePCT(now)
				}
			}
			dropped = append(dropped, e.Task)
			continue
		}
		kept = append(kept, e)
		if dirty {
			prev = e.PCT
		}
	}
	for i := len(kept); i < len(m.pending); i++ {
		m.pending[i] = Entry{}
	}
	m.pending = kept
	return dropped
}

func (m *refMachine) fail() []*task.Task {
	var orphans []*task.Task
	if m.running != nil {
		orphans = append(orphans, m.running)
		m.running = nil
		m.runComp = nil
	}
	for _, e := range m.pending {
		orphans = append(orphans, e.Task)
	}
	m.pending = nil
	m.stale = false
	m.down = true
	return orphans
}

func (m *refMachine) rejoin() { m.down = false }

func (m *refMachine) setPET(lookup PETLookup) {
	m.pet = lookup
	m.stale = true
}

func (m *refMachine) refreshPCTs(now float64) {
	prev := m.baselinePCT(now)
	for i := range m.pending {
		pct := prev.Convolve(m.pet(m.pending[i].Task.Type))
		m.pending[i].PCT = pct
		prev = pct
	}
	m.stale = false
}

// pmfBitwise compares two PMFs bit for bit via the exported accessors.
func pmfBitwise(a, b *pmf.PMF) error {
	if a.Width() != b.Width() {
		return fmt.Errorf("width %v vs %v", a.Width(), b.Width())
	}
	if a.Origin() != b.Origin() || a.NumBins() != b.NumBins() {
		return fmt.Errorf("support [%d,+%d) vs [%d,+%d)", a.Origin(), a.NumBins(), b.Origin(), b.NumBins())
	}
	if math.Float64bits(a.Tail()) != math.Float64bits(b.Tail()) {
		return fmt.Errorf("tail %v vs %v", a.Tail(), b.Tail())
	}
	for i := a.Origin(); i < a.Origin()+a.NumBins(); i++ {
		if math.Float64bits(a.Mass(i)) != math.Float64bits(b.Mass(i)) {
			return fmt.Errorf("mass[%d] %v vs %v", i, a.Mass(i), b.Mass(i))
		}
	}
	return nil
}

// opKind enumerates the randomized operations.
type opKind uint8

const (
	opEnqueue opKind = iota
	opStart
	opComplete
	opDrop
	opRefresh
	opAdvance
	opObserve // ExpectedReady + ChanceIfEnqueued (cache-exercising reads)
	opFail    // platform failure: orphan everything, go down
	opJoin    // rejoin a failed machine
	opSwapPET // degradation/restoration: swap the PET lookup mid-stream
	opDefer   // batch deferral: chance for every type, a re-query, then an enqueue
	opExpire  // two reactive sweeps (DropMissed) with time advancing between
	numOpKinds
)

// equivScenario is a fuzzer-generated operation sequence.
type equivScenario struct {
	ops  []opKind
	args []uint8
}

// Generate implements quick.Generator.
func (equivScenario) Generate(r *rand.Rand, _ int) reflect.Value {
	n := 4 + r.Intn(40)
	sc := equivScenario{ops: make([]opKind, n), args: make([]uint8, n)}
	for i := range sc.ops {
		sc.ops[i] = opKind(r.Intn(int(numOpKinds)))
		sc.args[i] = uint8(r.Intn(256))
	}
	return reflect.ValueOf(sc)
}

// randomPET builds three deterministic task-type PETs with irregular masses
// so conditioning hits every branch (including tails).
func randomPET() PETLookup {
	r := rand.New(rand.NewSource(0xfeed))
	pets := make([]*pmf.PMF, 3)
	for k := range pets {
		n := 1 + r.Intn(6)
		masses := make([]float64, n)
		for i := range masses {
			masses[i] = r.Float64() + 1e-3
		}
		var tail float64
		if k == 2 {
			tail = 0.1 // one type with tail mass exercises anchorTail
		}
		pets[k] = pmf.New(r.Intn(3), 1, masses, tail)
	}
	return func(taskType int) *pmf.PMF { return pets[taskType] }
}

// degradedPET is randomPET stretched by 1.5 — the lookup a degrade platform
// event would install.
func degradedPET(base PETLookup) PETLookup {
	pets := make([]*pmf.PMF, 3)
	for k := range pets {
		pets[k] = pmf.Stretch(base(k), 1.5)
	}
	return func(taskType int) *pmf.PMF { return pets[taskType] }
}

// equivLookup and equivSlowLookup are the PET tables runOps drives both
// machines with: randomPET and its degraded twin.
var (
	equivLookup     = randomPET()
	equivSlowLookup = degradedPET(equivLookup)
)

// sameTasks reports the first position where two task lists differ by ID.
func sameTasks(what string, got, want []*task.Task) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s %d vs %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID {
			return fmt.Errorf("%s order mismatch at %d: task %d vs %d", what, i, got[i].ID, want[i].ID)
		}
	}
	return nil
}

// runOps drives a fresh incremental machine and the full-recompute
// reference through the operation sequence ops (with per-step args) and
// requires bitwise-equal queue state after every step. It returns an error
// naming the first divergence. The property test and FuzzMachineOps share
// it.
func runOps(ops []opKind, args []uint8) error { return runOpsWith(ops, args, nil) }

// stepHook is an extra check runOpsWith makes after every step, given both
// machines and the current time.
type stepHook func(inc *Machine, ref *refMachine, now float64) error

// runOpsWith is runOps with an optional hook called after every step.
func runOpsWith(ops []opKind, args []uint8, after stepHook) error {
	inc := New(0, 0, equivLookup, 1)
	inc.SetScratch(&pmf.Scratch{})
	ref := &refMachine{pet: equivLookup, binWidth: 1}
	now := 0.0
	nextID := 0
	enqueue := func(tt int, arg uint8) {
		a := task.New(nextID, tt, now, now+float64(arg%17)+1)
		b := task.New(nextID, tt, now, now+float64(arg%17)+1)
		nextID++
		inc.Enqueue(a, now)
		ref.enqueue(b, now)
	}
	check := func() error {
		incPending := inc.Pending()
		ref.refreshIfStale()
		if len(incPending) != len(ref.pending) {
			return fmt.Errorf("pending %d vs %d", len(incPending), len(ref.pending))
		}
		for i := range incPending {
			if incPending[i].Task.ID != ref.pending[i].Task.ID {
				return fmt.Errorf("entry %d: task mismatch", i)
			}
			if err := pmfBitwise(incPending[i].PCT, ref.pending[i].PCT); err != nil {
				return fmt.Errorf("entry %d: %v", i, err)
			}
		}
		return nil
	}
	step := func(op opKind, arg uint8) error {
		switch op {
		case opEnqueue:
			if inc.Down() {
				return nil // the simulator never maps onto a down machine
			}
			enqueue(int(arg)%3, arg)
		case opStart:
			if inc.Down() {
				return nil
			}
			if st, rt := inc.StartNext(now), ref.startNext(now); (st == nil) != (rt == nil) {
				return fmt.Errorf("StartNext mismatch")
			}
		case opComplete:
			if inc.Running() == nil {
				return nil
			}
			inc.Complete(now)
			ref.complete(now)
		case opDrop:
			pred := func(e Entry) bool { return (arg>>(uint(e.Task.ID)%8))&1 == 1 }
			return sameTasks("dropped", inc.DropPending(now, pred, nil), ref.dropPending(now, pred))
		case opExpire:
			// Two reactive sweeps with no read between them, so the second
			// lazy repair composes with the first.
			missed := func(e Entry) bool { return e.Task.Missed(now) }
			if err := sameTasks("expired", inc.DropMissed(now, nil), ref.dropPending(now, missed)); err != nil {
				return err
			}
			now += float64(arg%9) * 0.5
			return sameTasks("expired", inc.DropMissed(now, nil), ref.dropPending(now, missed))
		case opRefresh:
			inc.RefreshPCTs(now)
			ref.refreshPCTs(now)
		case opAdvance:
			now += float64(arg%13) * 0.4
		case opFail:
			if inc.Down() {
				return nil
			}
			return sameTasks("orphans", inc.Fail(), ref.fail())
		case opJoin:
			if !inc.Down() {
				return nil
			}
			inc.Rejoin()
			ref.rejoin()
		case opSwapPET:
			if inc.Down() {
				return nil
			}
			next := equivLookup
			if arg&1 == 1 {
				next = equivSlowLookup
			}
			inc.SetPET(next)
			ref.setPET(next)
		case opObserve:
			if inc.Down() {
				return nil
			}
			if er, rr := inc.ExpectedReady(now), ref.expectedReady(now); math.Float64bits(er) != math.Float64bits(rr) {
				return fmt.Errorf("ExpectedReady %v vs %v", er, rr)
			}
			tt := int(arg) % 3
			deadline := now + float64(arg%11)
			ci := inc.ChanceIfEnqueued(tt, deadline, now)
			cr := ref.chanceIfEnqueued(tt, deadline, now)
			if math.Float64bits(ci) != math.Float64bits(cr) {
				return fmt.Errorf("chance %v vs %v", ci, cr)
			}
		case opDefer:
			if inc.Down() {
				return nil
			}
			// Ask about every type in an arg-seeded order without
			// mutating, re-ask one (a memo hit), then map one — the
			// pattern batch mapping produces between mutations.
			order := rand.New(rand.NewSource(int64(arg))).Perm(3)
			order = append(order, order[int(arg)%3])
			for k, tt := range order {
				deadline := now + float64((int(arg)+k)%11)
				ci := inc.ChanceIfEnqueued(tt, deadline, now)
				cr := ref.chanceIfEnqueued(tt, deadline, now)
				if math.Float64bits(ci) != math.Float64bits(cr) {
					return fmt.Errorf("query %d (type %d): chance %v vs %v", k, tt, ci, cr)
				}
			}
			enqueue(order[int(arg>>2)%3], arg)
		}
		return nil
	}
	for i, op := range ops {
		if err := step(op, args[i]); err != nil {
			return fmt.Errorf("step %d (op %d, arg %d): %v", i, op, args[i], err)
		}
		if err := check(); err != nil {
			return fmt.Errorf("step %d (op %d, arg %d): %v", i, op, args[i], err)
		}
		if after != nil {
			if err := after(inc, ref, now); err != nil {
				return fmt.Errorf("step %d (op %d, arg %d): %v", i, op, args[i], err)
			}
		}
	}
	// Final cross-check of the machine-free view.
	if err := pmfBitwise(inc.LastPCT(now), ref.lastPCT(now)); err != nil {
		return fmt.Errorf("final LastPCT: %v", err)
	}
	return nil
}

// TestPropIncrementalEquivalentToFullRecompute drives the incremental
// machine and the full-recompute reference through identical randomized
// operation sequences and requires bitwise-equal queue state throughout.
func TestPropIncrementalEquivalentToFullRecompute(t *testing.T) {
	f := func(sc equivScenario) bool {
		if err := runOps(sc.ops, sc.args); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

// TestFailRejoinMatchesFreshMachine pins the churn invariant directly: a
// machine that failed and rejoined is bitwise-indistinguishable from a
// machine that never existed before the rejoin — the incremental PCT state
// carries nothing across the failure.
func TestFailRejoinMatchesFreshMachine(t *testing.T) {
	lookup := randomPET()
	churned := New(0, 0, lookup, 1)
	churned.SetScratch(&pmf.Scratch{})
	for i := 0; i < 5; i++ {
		churned.Enqueue(task.New(i, i%3, 0, 50), 0)
	}
	churned.StartNext(0)
	orphans := churned.Fail()
	if len(orphans) != 5 {
		t.Fatalf("orphans %d, want 5 (running first)", len(orphans))
	}
	if orphans[0].ID != 0 {
		t.Fatalf("running task must orphan first, got %d", orphans[0].ID)
	}
	if !churned.Down() || churned.PendingCount() != 0 || !churned.Idle() {
		t.Fatalf("bad post-fail state: %v", churned)
	}
	churned.Rejoin()

	fresh := New(0, 0, lookup, 1)
	fresh.SetScratch(&pmf.Scratch{})
	now := 3.0
	for i := 10; i < 14; i++ {
		churned.Enqueue(task.New(i, i%3, now, now+40), now)
		fresh.Enqueue(task.New(i, i%3, now, now+40), now)
	}
	cp, fp := churned.Pending(), fresh.Pending()
	for i := range cp {
		if err := pmfBitwise(cp[i].PCT, fp[i].PCT); err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
	}
	if math.Float64bits(churned.ExpectedReady(now)) != math.Float64bits(fresh.ExpectedReady(now)) {
		t.Fatal("ExpectedReady differs from fresh machine after fail/rejoin")
	}
}

// TestRefreshPCTsSkipIsExact pins the headline incremental claim: calling
// RefreshPCTs twice at times that condition to the same anchor performs no
// work the second time, and the PCTs stay bitwise-identical to a full
// recompute by the reference implementation.
func TestRefreshPCTsSkipIsExact(t *testing.T) {
	lookup := randomPET()
	inc := New(0, 0, lookup, 1)
	ref := &refMachine{pet: lookup, binWidth: 1}
	for i := 0; i < 4; i++ {
		a := task.New(i, i%3, 0, 100)
		b := task.New(i, i%3, 0, 100)
		inc.Enqueue(a, 0)
		ref.enqueue(b, 0)
	}
	inc.StartNext(0)
	ref.startNext(0)
	for _, now := range []float64{0.2, 0.9, 1.4, 1.6, 2.2, 3.7, 9.0, 9.1} {
		inc.RefreshPCTs(now)
		ref.refreshPCTs(now)
		ip, rp := inc.Pending(), ref.pending
		if len(ip) != len(rp) {
			t.Fatalf("now=%v: pending %d vs %d", now, len(ip), len(rp))
		}
		for i := range ip {
			if err := pmfBitwise(ip[i].PCT, rp[i].PCT); err != nil {
				t.Fatalf("now=%v entry %d: %v", now, i, err)
			}
		}
	}
}
