package main

import (
	"os"
	"path/filepath"
	"testing"

	"prunesim/internal/store"
)

// TestBuildStore covers the -store flag wiring: backend selection, the
// LRU wrapper, and flag validation.
func TestBuildStore(t *testing.T) {
	mem, err := buildStore("memory", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	if _, ok := mem.(*store.Memory); !ok {
		t.Fatalf("buildStore(memory) = %T, want *store.Memory", mem)
	}

	dir := t.TempDir()
	disk, err := buildStore("disk", dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	if _, ok := disk.(*store.Disk); !ok {
		t.Fatalf("buildStore(disk) = %T, want *store.Disk", disk)
	}

	bounded, err := buildStore("memory", "", 100)
	if err != nil {
		t.Fatal(err)
	}
	defer bounded.Close()
	if _, ok := bounded.(*store.LRU); !ok {
		t.Fatalf("buildStore(memory, max 100) = %T, want *store.LRU", bounded)
	}

	if _, err := buildStore("redis", "", 0); err == nil {
		t.Fatal("buildStore(redis) succeeded, want error")
	}
	// A data dir that cannot be created surfaces the disk-store error.
	blocker := filepath.Join(t.TempDir(), "as-file")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := buildStore("disk", filepath.Join(blocker, "nested"), 0); err == nil {
		t.Fatal("buildStore(disk) under a file succeeded, want error")
	}
}

// TestBuildTenants covers the -keys / -anon-* flag wiring, including the
// flags-override-keyfile rule for the anonymous block.
func TestBuildTenants(t *testing.T) {
	// No keyfile, no limits: the unlimited anonymous registry.
	if _, err := buildTenants("", 0, 0, 0); err != nil {
		t.Fatal(err)
	}

	// Keyfile plus anonymous-flag override.
	keyfile := filepath.Join(t.TempDir(), "keys.json")
	if err := os.WriteFile(keyfile, []byte(`{
		"anonymous": {"rate_qps": 5},
		"keys": [{"key": "k1", "name": "team-a", "rate_qps": 100}]
	}`), 0o600); err != nil {
		t.Fatal(err)
	}
	reg, err := buildTenants(keyfile, 50, 75, 4)
	if err != nil {
		t.Fatal(err)
	}
	tn, ok := reg.Resolve("k1")
	if !ok || tn.Name() != "team-a" {
		t.Fatalf("keyfile tenant not resolvable: %v %v", tn, ok)
	}
	anon := reg.Anonymous().Limits()
	if anon.RateQPS != 50 || anon.Burst != 75 || anon.MaxInFlight != 4 {
		t.Fatalf("anonymous flags did not override keyfile: %+v", anon)
	}

	if _, err := buildTenants(filepath.Join(t.TempDir(), "missing.json"), 0, 0, 0); err == nil {
		t.Fatal("missing keyfile succeeded, want error")
	}
	if _, err := buildTenants("", -3, 0, 0); err == nil {
		t.Fatal("negative anon QPS succeeded, want error")
	}
}
