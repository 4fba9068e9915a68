package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCorruptCacheEntryIsLogged: a corrupt -cache-dir entry is quarantined
// and recomputed, and the run says so on stderr instead of healing it in
// silence.
func TestCorruptCacheEntryIsLogged(t *testing.T) {
	dir := t.TempDir()
	run := func() string {
		t.Helper()
		cmd := exec.Command(os.Args[0], "-quick", "-only", "fig14", "-progress=false", "-cache-dir", dir)
		cmd.Env = append(os.Environ(), childEnv+"=repro")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("repro: %v\n%s", err, stderr.String())
		}
		return stderr.String()
	}
	if out := run(); strings.Contains(out, "quarantined") {
		t.Fatalf("cold run reported a quarantine:\n%s", out)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("cold run left no cache entries (%v)", err)
	}
	if err := os.WriteFile(entries[0], []byte(`{"torn`), 0o644); err != nil {
		t.Fatal(err)
	}
	key := strings.TrimSuffix(filepath.Base(entries[0]), ".json")
	out := run()
	if !strings.Contains(out, "repro: cellcache: corrupt entry "+key+" quarantined") {
		t.Fatalf("warm run did not report the corrupt entry %s:\n%s", key, out)
	}
}
