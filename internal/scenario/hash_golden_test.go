package scenario

import (
	"path/filepath"
	"sort"
	"testing"
)

// pinnedInlineDocs cover schema blocks no shipped scenario uses: a
// piecewise rate curve with a phase and every PET override, a trace with
// inline arrivals and types, and a three-state MMPP chain.
var pinnedInlineDocs = map[string]string{
	"inline:rate_pieces_pet": `{
		"workload": {"pattern": "diurnal", "tasks": 3000, "rate": {"phase": 0.5,
			"pieces": [{"until": 0.25, "level": 1}, {"until": 0.5, "level": 4}, {"until": 1, "level": 0.5}]}},
		"platform": {"pet": {"bin_width": 0.25, "samples": 200, "shape_lo": 2, "shape_hi": 10, "seed": 7}},
		"prune": {"enabled": true},
		"run": {"seed": 11}
	}`,
	"inline:trace_types": `{
		"workload": {"pattern": "trace", "trace": {"arrivals": [10, 20, 35.5, 40, 41.25], "types": [0, 3, 11, 2, 7]}},
		"prune": {"enabled": true, "toggle": "always"},
		"run": {"trials": 4, "exclude_boundary": 0}
	}`,
	"inline:mmpp_three_state": `{
		"workload": {"pattern": "mmpp", "tasks": 5000, "mmpp": {"rates": [1, 4, 12], "mean_hold": [400, 150, 50]}},
		"platform": {"heuristic": "MSD"},
		"prune": {"enabled": true, "threshold": 0.3}
	}`,
}

// pinnedHashes are the content hashes of every shipped scenario and of
// pinnedInlineDocs. They are the disk store's cache keys: a schema change
// that moves one orphans every cached result for it, so the values may
// change only together with the store's contents.
var pinnedHashes = map[string]string{
	"bursty_arrivals.json":            "4fcf5c9e4a7522aeef8408040c5072f77c0db6a85900a2794e82432681525ff8",
	"constant_arrival_sufferage.json": "772c19ebe81d9a93302f21fee5757e7592e0f185750bc15f49871987894e559b",
	"diurnal_cycle.json":              "4b1b66e105244db80b383bb2a998a20c6ff44de99b7c8f480ee1712a69df7a3b",
	"heavy_tail_pets.json":            "4ddce6c094fc06fd9124b51f4905822dc873534a15792a97b9773d08b9bd9253",
	"inline:mmpp_three_state":         "fcaa8ee5fd799f230e22ef8a21fae2adf70b3d95c2d1273bfb1133472da427f0",
	"inline:rate_pieces_pet":          "8c76138f3cf93cf952f573e8ab299cfad67d1ab16a43c2b03b140992fb7e4fc4",
	"inline:trace_types":              "f698cb8a1919cbb209d9ef2192ff46c6852256c3bec87090378a2652519221cf",
	"machine_churn.json":              "f32e659a2c367626562e4fe6c111181402bf8bc1031129f0d3b92c206eb777f4",
	"million_task.json":               "034cc102d56f75982b3622b4a865c9ace2ea31537d2c4b95cfd97db04b129836",
	"mixed_sla_classes.json":          "3e77cf5b495ef07abfa54f89f2650b8437e3ec9517a8b85064533669e05339d1",
	"mmpp_bursty.json":                "c783bb385d0b4f5f49da1af3987e1d727cef71b6577a43eeeb960742a08172d5",
	"paper_fig10b_edf_pruned.json":    "bbddd66e1fda5c64753a3a93af78e5d2c178b4deef412c25501a122609742cca",
	"paper_fig7a_kpb_reactive.json":   "13595733da574f5a6871e94d1325df7237ace34f4ad92cac3f7869dccbf5e120",
	"paper_fig8_msd_defer50.json":     "bf3a895a7b97ed52be2a1460b7a6d2ac222c99a1b5d687a1e6b9bb5e2c8644dc",
	"paper_fig9b_mm_baseline.json":    "ef0b720902bd76ee1c5a893324b65294682230d5efd1a211c99fe4fe09d698d0",
	"paper_fig9b_mm_pruned.json":      "26d0e8c52f684f9bb2158a835533d06dceac5a42723224d253a383728f279e81",
	"poisson_baseline.json":           "2e36937034582a4ed18e7155a9b06908dec22c6d4140642d4588331d2c4dbe21",
	"service_smoke.json":              "62e2caec60d9208bfb3490078f6261cac45724351826aad2602c05b4fc112960",
	"spiky_oversubscription.json":     "d36c668c00036499ebf901c0133a3bdefc463d7138a5f2fd60cf11193c2e1437",
	"trace_replay.json":               "84b5439829165974f44c3446bf1c06d8132cb067520571fd33f124468af851e0",
}

// TestScenarioHashesPinned checks Scenario.Hash against pinned values for
// the whole shipped library and the inline documents.
func TestScenarioHashesPinned(t *testing.T) {
	paths, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, path := range paths {
		s, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		got[filepath.Base(path)] = mustHash(t, s)
	}
	for name, doc := range pinnedInlineDocs {
		s, err := Parse([]byte(doc))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = mustHash(t, s)
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if want, ok := pinnedHashes[name]; !ok {
			t.Errorf("%s: no pinned hash; add %q: %q", name, name, got[name])
		} else if got[name] != want {
			t.Errorf("%s: hash %s, pinned %s", name, got[name], want)
		}
	}
	for name := range pinnedHashes {
		if _, ok := got[name]; !ok {
			t.Errorf("pinned hash for %s, which no longer exists", name)
		}
	}
}
