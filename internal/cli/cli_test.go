package cli

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWriteJSONCreatesParents(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "deep", "nested", "out.json")
	if err := WriteJSON(path, map[string]int{"a": 1}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"a": 1`) {
		t.Fatalf("wrote %q", data)
	}
	if !strings.HasSuffix(string(data), "\n") {
		t.Fatal("output not newline-terminated")
	}
}

func TestCreateStdout(t *testing.T) {
	w, err := Create("-")
	if err != nil {
		t.Fatal(err)
	}
	// Closing the stdout writer must not close the real stdout.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stdout.Stat(); err != nil {
		t.Fatalf("stdout closed: %v", err)
	}
}

func TestWriteJSONUnmarshalable(t *testing.T) {
	if err := WriteJSON("-", func() {}); err == nil {
		t.Fatal("marshaled a func")
	}
}

func TestLoadScenarioDir(t *testing.T) {
	dir := t.TempDir()
	good := `{"name":"zeta","description":"d","workload":{"tasks":100},"platform":{},"prune":{"enabled":true},"run":{"trials":1}}`
	good2 := `{"name":"alpha","description":"d","workload":{"tasks":100},"platform":{},"prune":{"enabled":false},"run":{"trials":1}}`
	os.WriteFile(filepath.Join(dir, "b.json"), []byte(good), 0o644)
	os.WriteFile(filepath.Join(dir, "a.json"), []byte(good2), 0o644)
	lib, err := LoadScenarioDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(lib) != 2 || lib[0].Name != "alpha" || lib[1].Name != "zeta" {
		t.Fatalf("library %+v", lib)
	}

	// One bad file fails the whole load.
	os.WriteFile(filepath.Join(dir, "c.json"), []byte(`{"workload":{"tasks":-1}}`), 0o644)
	if _, err := LoadScenarioDir(dir); err == nil {
		t.Fatal("invalid scenario file accepted")
	}

	// Empty directory is an empty library, not an error.
	empty, err := LoadScenarioDir(t.TempDir())
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty dir: %v, %v", empty, err)
	}
}

func TestFlagGiven(t *testing.T) {
	flag.Int("flag-given-probe", 7, "")
	if FlagGiven("flag-given-probe") {
		t.Fatal("flag left at its default reported as given")
	}
	if err := flag.Set("flag-given-probe", "7"); err != nil {
		t.Fatal(err)
	}
	if !FlagGiven("flag-given-probe") {
		t.Fatal("explicitly set flag not reported")
	}
}
