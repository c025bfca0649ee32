package store_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"prunesim/internal/scenario"
	"prunesim/internal/store"
	"prunesim/internal/store/conformance"
)

// TestConformance runs the shared Store contract against every backend
// and the LRU wrapper composed over each.
func TestConformance(t *testing.T) {
	backends := map[string]conformance.Opener{
		"memory": func(t *testing.T) store.Store {
			s := store.NewMemory()
			t.Cleanup(func() { s.Close() })
			return s
		},
		"disk": func(t *testing.T) store.Store {
			s, err := store.OpenDisk(t.TempDir())
			if err != nil {
				t.Fatalf("OpenDisk: %v", err)
			}
			t.Cleanup(func() { s.Close() })
			return s
		},
		// The cap is far above what the suite stores, so LRU behaves as a
		// transparent wrapper here; eviction has its own tests below.
		"lru-memory": func(t *testing.T) store.Store {
			s := store.NewLRU(store.NewMemory(), 1024)
			t.Cleanup(func() { s.Close() })
			return s
		},
		"lru-disk": func(t *testing.T) store.Store {
			inner, err := store.OpenDisk(t.TempDir())
			if err != nil {
				t.Fatalf("OpenDisk: %v", err)
			}
			s := store.NewLRU(inner, 1024)
			t.Cleanup(func() { s.Close() })
			return s
		},
	}
	for name, open := range backends {
		t.Run(name, func(t *testing.T) { conformance.Run(t, open) })
	}
}

// TestDiskDurable runs the restart round-trip contract on the disk
// backend, bare and LRU-wrapped.
func TestDiskDurable(t *testing.T) {
	open := func(t *testing.T, dir string) store.Store {
		s, err := store.OpenDisk(dir)
		if err != nil {
			t.Fatalf("OpenDisk(%s): %v", dir, err)
		}
		return s
	}
	t.Run("disk", func(t *testing.T) { conformance.RunDurable(t, open) })
	t.Run("lru-disk", func(t *testing.T) {
		conformance.RunDurable(t, func(t *testing.T, dir string) store.Store {
			return store.NewLRU(open(t, dir), 1024)
		})
	})
}

func TestValidKey(t *testing.T) {
	valid := []string{"a", "abc123", "A-B_c.d", "0123456789abcdef"}
	invalid := []string{"", ".hidden", "a/b", "a\\b", "a b", "né", "a\x00b"}
	for _, k := range valid {
		if !store.ValidKey(k) {
			t.Errorf("ValidKey(%q) = false, want true", k)
		}
	}
	for _, k := range invalid {
		if store.ValidKey(k) {
			t.Errorf("ValidKey(%q) = true, want false", k)
		}
	}
	if long := string(make([]byte, 251)); store.ValidKey(long) {
		t.Error("ValidKey accepted a 251-byte key")
	}
}

// TestDiskBootCleansTmp proves a crashed writer's temp file is removed at
// open and never surfaces as an entry — the on-disk half of the
// "no partially written cache file survives a kill mid-Put" invariant.
func TestDiskBootCleansTmp(t *testing.T) {
	dir := t.TempDir()
	// Simulate a writer killed mid-Put: a tmp file exists, the rename
	// never happened.
	tmpName := filepath.Join(dir, "abc123.42.tmp")
	if err := os.WriteFile(tmpName, []byte(`{"truncated`), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatalf("OpenDisk: %v", err)
	}
	defer s.Close()
	if n := s.Len(); n != 0 {
		t.Errorf("Len = %d, want 0 (tmp files are not entries)", n)
	}
	if _, err := os.Stat(tmpName); !os.IsNotExist(err) {
		t.Errorf("boot left the tmp file in place (stat err %v)", err)
	}
}

// TestDiskQuarantinesCorruptEntry proves a corrupt committed entry is
// reported as a miss, moved to the quarantine directory, and not retried.
func TestDiskQuarantinesCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "badbeef.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatalf("OpenDisk: %v", err)
	}
	defer s.Close()
	// The lazy index trusts the filename, so the entry is visible...
	if n := s.Len(); n != 1 {
		t.Fatalf("Len = %d, want 1 (index is rebuilt from filenames)", n)
	}
	// ...until the first Get decodes it and quarantines the corpse.
	if _, ok := s.Get("badbeef"); ok {
		t.Fatal("Get of a corrupt entry reported a hit")
	}
	if n := s.Len(); n != 0 {
		t.Errorf("Len after quarantine = %d, want 0", n)
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", "badbeef.json")); err != nil {
		t.Errorf("corrupt entry was not moved to quarantine: %v", err)
	}
	if q, _ := s.Stats(); q != 1 {
		t.Errorf("quarantined count = %d, want 1", q)
	}
	// A fresh Put repairs the slot.
	s.Put("badbeef", conformance.Outcome(9))
	if _, ok := s.Get("badbeef"); !ok {
		t.Error("Put after quarantine did not repair the entry")
	}
}

// TestDiskPutAtomic looks for the write-path invariant directly: during
// and after a Put, the only visible file for the key decodes cleanly.
func TestDiskPutAtomic(t *testing.T) {
	dir := t.TempDir()
	s, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatalf("OpenDisk: %v", err)
	}
	defer s.Close()
	s.Put("k", conformance.Outcome(3))
	data, err := os.ReadFile(filepath.Join(dir, "k.json"))
	if err != nil {
		t.Fatalf("committed entry unreadable: %v", err)
	}
	if !json.Valid(data) {
		t.Error("committed entry is not valid JSON")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".tmp" {
			t.Errorf("tmp file %s left behind after Put", e.Name())
		}
	}
}

// TestLRUEvicts proves the wrapper bounds the inner store and evicts in
// least-recently-used order, counting Get hits as use.
func TestLRUEvicts(t *testing.T) {
	inner := store.NewMemory()
	l := store.NewLRU(inner, 2)
	defer l.Close()
	l.Put("a", conformance.Outcome(1))
	l.Put("b", conformance.Outcome(2))
	l.Get("a") // a is now more recent than b
	l.Put("c", conformance.Outcome(3))
	if _, ok := l.Get("b"); ok {
		t.Error("b survived eviction; want it dropped as least-recently-used")
	}
	if _, ok := l.Get("a"); !ok {
		t.Error("a was evicted despite being recently used")
	}
	if _, ok := l.Get("c"); !ok {
		t.Error("c missing right after Put")
	}
	if n := inner.Len(); n != 2 {
		t.Errorf("inner Len = %d, want 2 (eviction must reach the backend)", n)
	}
	if got, want := l.Keys(), []string{"a", "c"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Keys = %v, want %v", got, want)
	}
}

// TestLRUAdoptsExistingEntries proves wrapping a reopened disk store
// adopts its entries into the cap.
func TestLRUAdoptsExistingEntries(t *testing.T) {
	dir := t.TempDir()
	d, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"w", "x", "y", "z"} {
		d.Put(k, conformance.Outcome(4))
	}
	d.Close()

	reopened, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	l := store.NewLRU(reopened, 3)
	defer l.Close()
	if n := l.Len(); n != 3 {
		t.Errorf("Len after adoption trim = %d, want 3", n)
	}
	if n := reopened.Len(); n != 3 {
		t.Errorf("inner Len after adoption trim = %d, want 3", n)
	}
}

// openDisk opens a disk store over dir, closed when the test ends.
func openDisk(t *testing.T, dir string) *store.Disk {
	t.Helper()
	s, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatalf("OpenDisk(%s): %v", dir, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestDiskKeepsOutcomes proves a Put, or a first Get, leaves the outcome
// in memory: later Gets read no file, so removing or corrupting the file
// behind the store changes no answer and quarantines nothing.
func TestDiskKeepsOutcomes(t *testing.T) {
	for _, damage := range []string{"remove", "corrupt"} {
		t.Run(damage, func(t *testing.T) {
			dir := t.TempDir()
			spoil := func(key string) {
				path := filepath.Join(dir, key+".json")
				var err error
				if damage == "remove" {
					err = os.Remove(path)
				} else {
					err = os.WriteFile(path, []byte("{not json"), 0o644)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			s := openDisk(t, dir)
			put := conformance.Outcome(1)
			s.Put("put", put)
			s.Put("read", conformance.Outcome(2))
			s.Close()

			s = openDisk(t, dir)
			put2 := conformance.Outcome(3)
			s.Put("put", put2)
			read, ok := s.Get("read")
			if !ok {
				t.Fatal("first Get of a reopened entry missed")
			}
			spoil("put")
			spoil("read")
			for key, want := range map[string]*scenario.Outcome{"put": put2, "read": read} {
				if got, ok := s.Get(key); !ok || got != want {
					t.Errorf("Get(%q) after the file was spoiled = %p, %v; want the kept %p", key, got, ok, want)
				}
			}
			if q, _ := s.Stats(); q != 0 {
				t.Errorf("quarantined %d entries, want 0", q)
			}
		})
	}
}

// TestDiskDecodesOnFirstGet proves a reopened store reads an entry's file
// on its first Get, not at open: a file rewritten between the two is the
// one Get answers with.
func TestDiskDecodesOnFirstGet(t *testing.T) {
	dir := t.TempDir()
	s := openDisk(t, dir)
	s.Put("k", conformance.Outcome(1))
	s.Close()

	s = openDisk(t, dir)
	want := conformance.Outcome(2)
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "k.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("k")
	if !ok {
		t.Fatal("first Get missed")
	}
	if gotData, _ := json.Marshal(got); string(gotData) != string(data) {
		t.Errorf("first Get = %s, want the file's %s", gotData, data)
	}
	if again, _ := s.Get("k"); again != got {
		t.Error("second Get decoded again instead of returning the kept outcome")
	}
}

// TestDiskDeleteDropsKept proves Delete forgets a kept outcome, whether a
// Put or a first Get kept it.
func TestDiskDeleteDropsKept(t *testing.T) {
	dir := t.TempDir()
	s := openDisk(t, dir)
	s.Put("read", conformance.Outcome(1))
	s.Close()
	s = openDisk(t, dir)
	if _, ok := s.Get("read"); !ok {
		t.Fatal("first Get missed")
	}
	s.Put("put", conformance.Outcome(2))
	for _, key := range []string{"read", "put"} {
		if !s.Delete(key) {
			t.Errorf("Delete(%q) = false", key)
		}
		if _, ok := s.Get(key); ok {
			t.Errorf("Get(%q) hit after Delete", key)
		}
		if _, err := os.Stat(filepath.Join(dir, key+".json")); !os.IsNotExist(err) {
			t.Errorf("Delete(%q) left its file (stat err %v)", key, err)
		}
	}
}

// TestLRUBoundsDisk proves an LRU over Disk keeps at most its cap of
// entries, on disk and in memory: an evicted key misses through the
// wrapper and in the disk store beneath it.
func TestLRUBoundsDisk(t *testing.T) {
	const max = 3
	dir := t.TempDir()
	d := openDisk(t, dir)
	l := store.NewLRU(d, max)
	keys := []string{"a", "b", "c", "d", "e", "f", "g"}
	for i, k := range keys {
		l.Put(k, conformance.Outcome(i))
		if n, m := l.Len(), d.Len(); n > max || m > max {
			t.Fatalf("after %d Puts: LRU Len %d, disk Len %d; want at most %d", i+1, n, m, max)
		}
	}
	for i, k := range keys {
		_, inLRU := l.Get(k)
		_, onDisk := d.Get(k)
		if evicted := i < len(keys)-max; evicted && (inLRU || onDisk) {
			t.Errorf("evicted %q still hits (LRU %v, disk %v)", k, inLRU, onDisk)
		} else if !evicted && !(inLRU && onDisk) {
			t.Errorf("kept %q missed (LRU %v, disk %v)", k, inLRU, onDisk)
		}
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) != max {
		t.Errorf("%d entry files on disk, want %d (err %v)", len(files), max, err)
	}
}

// TestDiskConcurrentOneKey races first-Get decodes of a reopened entry
// against Puts and Deletes of the same key. Run under -race. The reopened
// entry is large, so its decode is still running when the Puts commit;
// the last Put must win all the same, in memory and on disk: no Get that
// read an older file may install its decode over a newer Put.
func TestDiskConcurrentOneKey(t *testing.T) {
	dir := t.TempDir()
	big := conformance.Outcome(0)
	for len(big.Results) < 2000 {
		big.Results = append(big.Results, big.Results...)
	}
	for round := 0; round < 3; round++ {
		s := openDisk(t, dir)
		s.Put("k", big)
		s.Close()

		s = openDisk(t, dir)
		last := conformance.Outcome(round + 1)
		var wg sync.WaitGroup
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					s.Get("k")
				}
			}()
		}
		s.Put("k", conformance.Outcome(100))
		s.Delete("k")
		s.Put("k", last)
		wg.Wait()
		if got, ok := s.Get("k"); !ok || got != last {
			t.Fatalf("round %d: Get after the race = %p, %v; want the last Put's %p", round, got, ok, last)
		}
		s.Close()

		reopened := openDisk(t, dir)
		got, ok := reopened.Get("k")
		want, _ := json.Marshal(last)
		if gotData, _ := json.Marshal(got); !ok || string(gotData) != string(want) {
			t.Fatalf("round %d: reopened entry = %s, %v; want the last Put's %s", round, gotData, ok, want)
		}
		reopened.Close()
	}
}
