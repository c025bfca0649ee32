package experiments

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"prunesim/internal/scenario"
	"prunesim/internal/sched"
	"prunesim/internal/sim"
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
	return got
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
