// Package cli holds the small pieces the prunesim front ends share —
// cmd/hcsim, cmd/experiments and cmd/prunesimd: output-path handling
// ("-" means stdout, parent directories are created on demand),
// scenario-library loading from a directory and explicit-flag detection.
package cli

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"prunesim/internal/scenario"
)

// Create opens path for writing. "-" returns stdout (whose Close is a
// no-op, so callers can defer Close unconditionally); any other path has
// its parent directories created first.
func Create(path string) (io.WriteCloser, error) {
	if path == "-" {
		return nopCloser{os.Stdout}, nil
	}
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("creating %s: %w", dir, err)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// nopCloser shields shared writers (stdout) from Close.
type nopCloser struct{ io.Writer }

func (nopCloser) Close() error { return nil }

// WriteJSON writes v as indented JSON to path via Create ("-" → stdout).
func WriteJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	w, err := Create(path)
	if err != nil {
		return err
	}
	if _, err := w.Write(append(data, '\n')); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// LoadScenarioDir loads and normalizes every *.json scenario file in dir,
// sorted by file name — how prunesimd ingests an operator-provided library
// directory next to the embedded one. The first invalid file aborts the
// load: a daemon must not come up serving a half-read library.
func LoadScenarioDir(dir string) ([]scenario.Scenario, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	out := make([]scenario.Scenario, 0, len(paths))
	for _, p := range paths {
		s, err := scenario.Load(p)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// FlagGiven reports whether the named command-line flag was given
// explicitly, as opposed to left at its default.
func FlagGiven(name string) bool {
	given := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			given = true
		}
	})
	return given
}
