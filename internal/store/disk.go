package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"prunesim/internal/scenario"
)

// entryExt is the filename suffix of a committed cache entry; tmpExt marks
// in-progress writes (removed at boot — a crashed Put leaves at worst a
// tmp file, never a partially written entry).
const (
	entryExt = ".json"
	tmpExt   = ".tmp"
	// quarantineDir collects entries that failed to decode on Get, so a
	// corrupt file is diagnosed once instead of re-read (and re-failed) on
	// every lookup. Operators can inspect or delete it freely.
	quarantineDir = "quarantine"
)

// Disk is a durable Store: one JSON file per key under a data directory.
//
// Writes are atomic — the entry is encoded to a temp file in the same
// directory and renamed into place — so no partially written entry is
// ever visible, even across a kill mid-Put. On open, the index is rebuilt
// lazily from the directory listing alone (filenames, no decoding), so a
// restarted daemon answers Get for every sweep the previous process
// committed; entry bodies are decoded on first Get, and a corrupt body is
// moved to the quarantine subdirectory and reported as a miss.
//
// The index keeps every outcome the store has decoded or written, so a
// warm Get is a map lookup and reads no file. Kept outcomes are shared
// like Memory's; wrap the store in an LRU to bound them along with the
// directory.
type Disk struct {
	dir string

	// mu guards the index and orders every file rename and removal
	// against it, so a kept outcome always matches the committed file.
	mu sync.RWMutex
	// index maps each committed key to its kept outcome; nil means the
	// entry is on disk and not yet decoded.
	index       map[string]*scenario.Outcome
	closed      bool
	quarantined int
	dropped     int // Put calls that failed to persist (best-effort)
}

// OpenDisk opens (creating if needed) a disk store rooted at dir. Leftover
// temp files from a crashed writer are removed; committed entries are
// indexed by filename without being decoded.
func OpenDisk(dir string) (*Disk, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: disk: data directory must be set")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: disk: %w", err)
	}
	d := &Disk{dir: dir, index: make(map[string]*scenario.Outcome)}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: disk: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		switch {
		case strings.HasSuffix(name, tmpExt):
			// A writer died mid-Put. The rename never happened, so the
			// entry simply does not exist; clear the debris.
			os.Remove(filepath.Join(dir, name))
		case strings.HasSuffix(name, entryExt):
			key := strings.TrimSuffix(name, entryExt)
			if ValidKey(key) {
				d.index[key] = nil
			}
		}
	}
	return d, nil
}

// Dir returns the store's data directory.
func (d *Disk) Dir() string { return d.dir }

// path maps a key to its committed entry file.
func (d *Disk) path(key string) string {
	return filepath.Join(d.dir, key+entryExt)
}

// Get implements Store. The first Get of an entry decodes its file and
// keeps the outcome; a present-but-corrupt entry is quarantined and
// reported as a miss, so the caller recomputes and the next Put repairs
// the cache.
func (d *Disk) Get(key string) (*scenario.Outcome, bool) {
	d.mu.RLock()
	o, ok := d.index[key]
	closed := d.closed
	d.mu.RUnlock()
	if !ok || closed {
		return nil, false
	}
	if o != nil {
		return o, true
	}
	data, readErr := os.ReadFile(d.path(key))
	var decoded scenario.Outcome
	var decodeErr error
	if readErr == nil {
		decodeErr = json.Unmarshal(data, &decoded)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	// Only an entry that is still undecoded holds the file just read: a
	// Put since then has kept its own outcome, and a Delete removed it.
	o, ok = d.index[key]
	switch {
	case !ok:
		return nil, false
	case o != nil:
		return o, true
	case readErr != nil:
		// Deleted or unreadable behind our back; drop it from the index.
		delete(d.index, key)
		return nil, false
	case decodeErr != nil:
		d.quarantineLocked(key)
		return nil, false
	}
	d.index[key] = &decoded
	return &decoded, true
}

// quarantineLocked moves a corrupt entry aside and forgets it; caller
// holds d.mu.
func (d *Disk) quarantineLocked(key string) {
	qdir := filepath.Join(d.dir, quarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err == nil {
		os.Rename(d.path(key), filepath.Join(qdir, key+entryExt))
	} else {
		os.Remove(d.path(key))
	}
	delete(d.index, key)
	d.quarantined++
}

// Put implements Store. The entry is written to a temp file and renamed
// into place, so concurrent readers (and any process that kills this one
// mid-write) see either the old entry or the new one, never a torn file.
// Once the rename commits the file, the store keeps o itself.
func (d *Disk) Put(key string, o *scenario.Outcome) {
	if !ValidKey(key) {
		d.recordDrop()
		return
	}
	d.mu.RLock()
	closed := d.closed
	d.mu.RUnlock()
	if closed {
		return
	}
	data, err := json.Marshal(o)
	if err != nil {
		d.recordDrop()
		return
	}
	tmp, err := os.CreateTemp(d.dir, key+".*"+tmpExt)
	if err != nil {
		d.recordDrop()
		return
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		d.recordDrop()
		return
	}
	// Flush file contents to stable storage before the rename publishes
	// the entry: rename-then-crash must never expose an empty file.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		d.recordDrop()
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		d.recordDrop()
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := os.Rename(tmp.Name(), d.path(key)); err != nil {
		os.Remove(tmp.Name())
		d.dropped++
		return
	}
	d.index[key] = o
}

// recordDrop counts a best-effort Put that failed to persist.
func (d *Disk) recordDrop() {
	d.mu.Lock()
	d.dropped++
	d.mu.Unlock()
}

// Delete implements Store, dropping the kept outcome with the file.
func (d *Disk) Delete(key string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.index[key]
	delete(d.index, key)
	if ok {
		os.Remove(d.path(key))
	}
	return ok
}

// Keys implements Store.
func (d *Disk) Keys() []string {
	d.mu.RLock()
	keys := make([]string, 0, len(d.index))
	for k := range d.index {
		keys = append(keys, k)
	}
	d.mu.RUnlock()
	sort.Strings(keys)
	return keys
}

// Len implements Store.
func (d *Disk) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.index)
}

// Close implements Store. Entries are already durable (every Put synced
// and renamed), so Close only marks the store unusable.
func (d *Disk) Close() error {
	d.mu.Lock()
	d.closed = true
	d.mu.Unlock()
	return nil
}

// Stats reports operational counters: entries quarantined by corrupt
// reads and best-effort Puts dropped by write errors.
func (d *Disk) Stats() (quarantined, dropped int) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.quarantined, d.dropped
}
