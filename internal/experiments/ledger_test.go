package experiments

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"prunesim/internal/admission"
	"prunesim/internal/randx"
	"prunesim/internal/scenario"
	"prunesim/internal/sched"
	"prunesim/internal/sim"
	"prunesim/internal/workload"
)

var updateLedger = flag.Bool("update", false, "rewrite testdata/ledger.json from this run")

// ledgerPath is the committed table of pinned result digests.
const ledgerPath = "testdata/ledger.json"

// digestResult hashes a result's JSON encoding with FNV-64a, the rule
// perfbench's canaries use. Go writes every float in its shortest exact
// form, so any change to any field moves the digest.
func digestResult(r *sim.Result) (string, error) {
	data, err := json.Marshal(r)
	if err != nil {
		return "", err
	}
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// ledgerEntries runs every figure driver's cells, every shipped scenario
// and one small trial per batch heuristic at test scale, and returns the
// digest of each trial's result keyed by where it came from.
func ledgerEntries(t *testing.T) map[string]string {
	t.Helper()
	got := map[string]string{}
	add := func(key string, rs []*sim.Result) {
		for i, r := range rs {
			d, err := digestResult(r)
			if err != nil {
				t.Fatal(err)
			}
			k := fmt.Sprintf("%s/trial%d", key, i)
			if _, dup := got[k]; dup {
				t.Fatalf("duplicate ledger key %q", k)
			}
			got[k] = d
		}
	}
	opt, err := quickOpt().withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	eng := scenario.NewEngine(opt.Parallelism)
	for _, name := range Names() {
		h := &harness{opt: opt, eng: eng, record: func(res []scenario.CellResult) {
			for _, cr := range res {
				add("figure/"+name+"/"+cr.Series+"|"+cr.X, cr.Outcome.Results)
			}
		}}
		if _, err := drivers[name](h); err != nil {
			t.Fatalf("figure %s: %v", name, err)
		}
	}

	paths, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		s, err := scenario.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		s.Run.Trials, s.Run.Scale = 2, 0.06
		out, err := eng.Run(s)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		add("scenario/"+filepath.Base(path), out.Results)
	}

	// The figures never run MaxMin or Sufferage; one trial per batch
	// heuristic pins every Map implementation.
	for _, name := range sched.Names() {
		if _, immediate, _ := sched.ByName(name); immediate {
			continue
		}
		s := scenario.Default()
		s.Name = "ledger-" + name
		s.Platform.Heuristic = name
		s.Run = scenario.Run{Trials: 1, Scale: 0.06, Seed: opt.Seed}
		out, err := eng.Run(s)
		if err != nil {
			t.Fatalf("heuristic %s: %v", name, err)
		}
		add("heuristic/"+name, out.Results)
	}

	// One seeded admission decision stream per immediate heuristic, with
	// pruning on and off, pins the online path the simulator does not run.
	for _, name := range sched.Names() {
		if _, immediate, _ := sched.ByName(name); !immediate {
			continue
		}
		for _, prune := range []bool{true, false} {
			d, err := admissionStream(name, prune, opt.Seed)
			if err != nil {
				t.Fatalf("admission %s (prune %v): %v", name, prune, err)
			}
			got[fmt.Sprintf("admission/%s/prune=%v", name, prune)] = d
		}
	}
	return got
}

// admissionStream replays one seeded arrival trace (about 2000 tasks at the
// paper's default density) through an admission session: a decide per
// arrival at its arrival time, and a complete per started task once a
// duration drawn from its PET has passed. It returns the FNV-64a digest
// of the JSON of every Decision and Completion, in order.
func admissionStream(heuristic string, prune bool, seed uint64) (string, error) {
	p := scenario.Platform{Heuristic: heuristic}.WithDefaults()
	m, err := p.BuildMatrix()
	if err != nil {
		return "", err
	}
	pc, err := scenario.Prune{Enabled: prune}.WithDefaults().CoreConfig(m.NumTaskTypes())
	if err != nil {
		return "", err
	}
	machineTypes := p.MachineTypes(m)
	sess, err := admission.NewSession(admission.Config{
		Matrix: m, MachineTypes: machineTypes, Heuristic: heuristic, Slots: p.Slots, Prune: pc,
	})
	if err != nil {
		return "", err
	}
	const tasks = 2000
	wc := workload.DefaultConfig(tasks)
	wc.TimeSpan, wc.NumSpikes, wc.Seed = tasks/5, tasks*8/15000, seed
	src, err := workload.NewSource(m, wc)
	if err != nil {
		return "", err
	}

	h := fnv.New64a()
	record := func(v any) error {
		data, err := json.Marshal(v)
		h.Write(data)
		return err
	}
	type placed struct{ typ, machine int }
	live := map[int]placed{}
	type finish struct {
		at float64
		id int
	}
	var running []finish // at most one per machine
	rng := randx.New(0)
	start := func(id int, now float64) {
		rng.SplitInto(seed, uint64(id))
		pl := live[id]
		running = append(running, finish{now + m.PET(pl.typ, machineTypes[pl.machine]).Sample(rng), id})
	}
	// completeUntil completes, in (time, ID) order, every running task
	// that finishes by until.
	completeUntil := func(until float64) error {
		for {
			k := -1
			for i, f := range running {
				if f.at <= until && (k < 0 || f.at < running[k].at || f.at == running[k].at && f.id < running[k].id) {
					k = i
				}
			}
			if k < 0 {
				return nil
			}
			f := running[k]
			running = slices.Delete(running, k, k+1)
			c, err := sess.Complete(f.id, f.at)
			if err != nil {
				return err
			}
			if err := record(c); err != nil {
				return err
			}
			delete(live, f.id)
			for _, id := range c.Started {
				start(id, f.at)
			}
		}
	}
	for t, ok := src.Next(); ok; t, ok = src.Next() {
		if err := completeUntil(t.Arrival); err != nil {
			return "", err
		}
		d, err := sess.Decide(admission.TaskSpec{Type: t.Type, Deadline: t.Deadline}, t.Arrival)
		if err != nil {
			return "", err
		}
		if err := record(d); err != nil {
			return "", err
		}
		if d.Verdict == admission.VerdictAccept {
			live[d.TaskID] = placed{t.Type, d.Machine}
			if d.Started {
				start(d.TaskID, t.Arrival)
			}
		}
		src.Recycle(t)
	}
	if err := completeUntil(math.Inf(1)); err != nil {
		return "", err
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// TestResultLedger pins absolute results: every other result check in the
// module compares two code paths with each other, so a change that moves
// both (a summation order, a tie-break) passes them all. Run with -update
// to rewrite the ledger after an intended change of results, and say which
// entries moved and why.
func TestResultLedger(t *testing.T) {
	got := ledgerEntries(t)
	if *updateLedger {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ledgerPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d entries to %s", len(got), ledgerPath)
		return
	}
	data, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", ledgerPath, err)
	}
	keys := make([]string, 0, len(got)+len(want))
	for k := range got {
		keys = append(keys, k)
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	bad := 0
	for _, k := range keys {
		g, w := got[k], want[k]
		if g == w {
			continue
		}
		if bad++; bad <= 20 {
			switch {
			case w == "":
				t.Errorf("%s: digest %s not in the ledger", k, g)
			case g == "":
				t.Errorf("%s: in the ledger but not produced", k)
			default:
				t.Errorf("%s: digest %s, pinned %s", k, g, w)
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d ledger entries differ (rerun with -update only if the results were meant to change)", bad, len(keys))
	}
}
