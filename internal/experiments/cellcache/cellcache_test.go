package cellcache

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var sample = Measurement{Mean: 123.4, MeanRead: 101.5, P99Read: 987.6, RetrySteps: 7.25}

const key = "0a1b2c3d4e5f60718293a4b5c6d7e8f90a1b2c3d4e5f60718293a4b5c6d7e8f9"

func TestMemoryRoundTrip(t *testing.T) {
	c := Memory()
	if _, ok := c.Get(key); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put(key, sample)
	got, ok := c.Get(key)
	if !ok || got != sample {
		t.Fatalf("Get = %+v, %v; want %+v, true", got, ok, sample)
	}
	over := sample
	over.Mean = 1
	c.Put(key, over)
	if got, _ := c.Get(key); got != over {
		t.Fatalf("Put did not overwrite: %+v", got)
	}
}

func TestDiskPersistsAcrossInstances(t *testing.T) {
	dir := t.TempDir()
	c1, err := Disk(dir)
	if err != nil {
		t.Fatal(err)
	}
	c1.Put(key, sample)

	c2, err := Disk(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get(key)
	if !ok || got != sample {
		t.Fatalf("fresh instance Get = %+v, %v; want %+v, true", got, ok, sample)
	}
}

// TestCrossSchemaKeysNeverAlias: the engine versions its key derivation
// with a schema tag, so entries written under one schema reach the cache
// under different digests than any other schema's lookups. The cache's
// side of that contract is exact-key matching — a stored entry must never
// satisfy a lookup under any other key, however similar.
func TestCrossSchemaKeysNeverAlias(t *testing.T) {
	oldKey := key
	newKey := "f" + key[1:] // same length and charset, one digit apart
	for name, c := range map[string]func(t *testing.T) Cache{
		"memory": func(t *testing.T) Cache { return Memory() },
		"disk": func(t *testing.T) Cache {
			d, err := Disk(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
	} {
		t.Run(name, func(t *testing.T) {
			cache := c(t)
			cache.Put(oldKey, sample)
			if _, ok := cache.Get(newKey); ok {
				t.Fatal("entry stored under one key satisfied a lookup under another")
			}
			if got, ok := cache.Get(oldKey); !ok || got != sample {
				t.Fatalf("exact-key lookup = %+v, %v", got, ok)
			}
		})
	}
}

func TestDiskCorruptEntryIsAMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := Disk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, key+".json"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("corrupt entry reported a hit")
	}
}

// TestDiskFlippedByteQuarantinedAndHealed is the integrity contract end to
// end: a single flipped byte inside a valid-looking entry fails its
// CRC-32C, the entry is quarantined (not left in place to trip the next
// reader), the corruption is surfaced through the counter and log
// observer, and a recompute-and-Put heals the key.
func TestDiskFlippedByteQuarantinedAndHealed(t *testing.T) {
	dir := t.TempDir()
	c, err := Disk(dir)
	if err != nil {
		t.Fatal(err)
	}
	c.Put(key, sample)

	// Flip one byte of the payload region on disk.
	path := filepath.Join(dir, key+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := strings.Index(string(data), "123.4")
	if i < 0 {
		t.Fatalf("entry does not embed the payload: %s", data)
	}
	data[i] = '9'
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// A fresh instance (cold memory tier) must detect, count, and
	// quarantine — and report a miss, never the poisoned value.
	var logged []string
	c2, err := Disk(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2.SetLogf(func(format string, args ...interface{}) {
		logged = append(logged, fmt.Sprintf(format, args...))
	})
	if m, ok := c2.Get(key); ok {
		t.Fatalf("flipped-byte entry reported a hit: %+v", m)
	}
	if got := c2.CorruptCount(); got != 1 {
		t.Fatalf("CorruptCount = %d, want 1", got)
	}
	if len(logged) != 1 || !strings.Contains(logged[0], "corrupt entry "+key) {
		t.Fatalf("corruption not surfaced in log: %q", logged)
	}
	if _, err := os.Stat(filepath.Join(dir, QuarantineDir, key+".json")); err != nil {
		t.Fatalf("corrupt entry not quarantined: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt entry still live at %s (%v)", path, err)
	}

	// Recompute-and-heal: the next Put restores a verifiable entry.
	c2.Put(key, sample)
	c3, err := Disk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m, ok := c3.Get(key); !ok || m != sample {
		t.Fatalf("healed entry = %+v, %v; want %+v, true", m, ok, sample)
	}
	if got := c3.CorruptCount(); got != 0 {
		t.Fatalf("healed entry still counted corrupt: %d", got)
	}
	if got := c2.QuarantineFailCount(); got != 0 {
		t.Fatalf("successful quarantine counted as a failure: %d", got)
	}
}

// TestDiskQuarantineRenameFailureCountedAndRemoved pins the degraded
// branch of the quarantine path: when the quarantine directory cannot
// be created (here a plain file squats on the name), the corrupt entry
// is removed outright so the miss is still permanent, and the lost
// evidence is accounted — QuarantineFailCount increments and the log
// line names the cause — instead of being silently folded into the
// happy path.
func TestDiskQuarantineRenameFailureCountedAndRemoved(t *testing.T) {
	dir := t.TempDir()
	c, err := Disk(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key+".json")
	if err := os.WriteFile(path, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A plain file named "quarantine" makes MkdirAll fail with ENOTDIR —
	// even for root, unlike permission-based setups.
	if err := os.WriteFile(filepath.Join(dir, QuarantineDir), []byte("squatter"), 0o644); err != nil {
		t.Fatal(err)
	}
	var logged []string
	c.SetLogf(func(format string, args ...interface{}) {
		logged = append(logged, fmt.Sprintf(format, args...))
	})

	if _, ok := c.Get(key); ok {
		t.Fatal("corrupt entry reported a hit")
	}
	if got := c.CorruptCount(); got != 1 {
		t.Fatalf("CorruptCount = %d, want 1", got)
	}
	if got := c.QuarantineFailCount(); got != 1 {
		t.Fatalf("QuarantineFailCount = %d, want 1", got)
	}
	if got := c.StrandedCount(); got != 0 {
		t.Fatalf("StrandedCount = %d, want 0 (removal succeeded)", got)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt entry still live after failed quarantine (%v)", err)
	}
	if len(logged) != 1 || !strings.Contains(logged[0], "quarantine failed") ||
		!strings.Contains(logged[0], "removed") {
		t.Fatalf("quarantine failure not surfaced with its cause: %q", logged)
	}

	// The miss is permanent and the key heals like any other: the next
	// Put restores a verifiable entry even with the quarantine dir still
	// blocked.
	c.Put(key, sample)
	c2, err := Disk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m, ok := c2.Get(key); !ok || m != sample {
		t.Fatalf("healed entry = %+v, %v; want %+v, true", m, ok, sample)
	}
}

// TestDiskQuarantineStrandedEntryCounted drives the last-resort branch:
// quarantine blocked and the entry itself unremovable (a non-empty
// directory squatting on the entry name defeats os.Remove even for
// root). The cache cannot make the miss permanent, so it must say so:
// StrandedCount increments and the log line carries both failures.
func TestDiskQuarantineStrandedEntryCounted(t *testing.T) {
	dir := t.TempDir()
	c, err := Disk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, QuarantineDir), []byte("squatter"), 0o644); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key+".json")
	if err := os.MkdirAll(filepath.Join(path, "pin"), 0o755); err != nil {
		t.Fatal(err)
	}
	var logged []string
	c.SetLogf(func(format string, args ...interface{}) {
		logged = append(logged, fmt.Sprintf(format, args...))
	})

	c.quarantine(key, fmt.Errorf("synthetic corruption"))

	if got := c.QuarantineFailCount(); got != 1 {
		t.Fatalf("QuarantineFailCount = %d, want 1", got)
	}
	if got := c.StrandedCount(); got != 1 {
		t.Fatalf("StrandedCount = %d, want 1", got)
	}
	if len(logged) != 1 || !strings.Contains(logged[0], "stranded") {
		t.Fatalf("stranded entry not surfaced: %q", logged)
	}
}

// TestDiskGCOrphanTmpFiles: temp files a crashed writer left behind are
// reclaimed on open once they are stale, while live entries — and fresh
// temp files that may belong to a writer in another process — are left
// alone.
func TestDiskGCOrphanTmpFiles(t *testing.T) {
	dir := t.TempDir()
	c, err := Disk(dir)
	if err != nil {
		t.Fatal(err)
	}
	c.Put(key, sample)

	old := time.Now().Add(-2 * orphanTmpAge)
	stale1 := filepath.Join(dir, key+".json.tmp123")
	stale2 := filepath.Join(dir, "deadbeef.json.tmp9")
	fresh := filepath.Join(dir, key+".json.tmp456")
	for _, p := range []string{stale1, stale2, fresh} {
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []string{stale1, stale2} {
		if err := os.Chtimes(p, old, old); err != nil {
			t.Fatal(err)
		}
	}

	c2, err := Disk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := c2.OrphansRemoved(); got != 2 {
		t.Fatalf("OrphansRemoved = %d, want 2", got)
	}
	for _, p := range []string{stale1, stale2} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("stale orphan %s survived GC (%v)", p, err)
		}
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatalf("fresh temp file was GCed: %v", err)
	}
	if m, ok := c2.Get(key); !ok || m != sample {
		t.Fatalf("live entry touched by GC: %+v, %v", m, ok)
	}
}

func TestDiskRejectsUnsafeKeys(t *testing.T) {
	dir := t.TempDir()
	c, err := Disk(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "../escape", "a/b", "a.b", "x y"} {
		c.Put(bad, sample) // must not create files outside dir or panic
		if _, ok := c.Get(bad); bad != "" && ok {
			// The memory tier may still serve it, but it must not have
			// come from disk on a fresh instance.
			c2, err := Disk(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := c2.Get(bad); ok {
				t.Errorf("unsafe key %q round-tripped through disk", bad)
			}
		}
	}
	if _, err := os.Stat(filepath.Join(filepath.Dir(dir), "escape.json")); err == nil {
		t.Fatal("unsafe key escaped the cache directory")
	}
}

func TestDiskCreatesDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "cache")
	c, err := Disk(dir)
	if err != nil {
		t.Fatal(err)
	}
	c.Put(key, sample)
	if _, err := os.Stat(filepath.Join(dir, key+".json")); err != nil {
		t.Fatalf("entry not on disk: %v", err)
	}
}

// TestConcurrentWritersShareDirWithoutTornEntries models the shard
// subsystem's deployment: several processes — here, several independent
// Disk instances, so nothing is serialized by a shared in-memory tier —
// hammer one directory concurrently, overlapping on some keys and disjoint
// on others, while readers poll. Every observation must be all-or-nothing:
// either a miss or a complete, valid measurement, never a torn entry.
func TestConcurrentWritersShareDirWithoutTornEntries(t *testing.T) {
	dir := t.TempDir()
	const writers = 6
	const perWriter = 40

	// keyFor derives a distinct valid key per slot; slot 0 is shared by
	// every writer (maximum contention), the rest are per-writer.
	keyFor := func(writer, slot int) string {
		if slot == 0 {
			return key
		}
		return fmt.Sprintf("%02x%02x%s", writer, slot, key[4:])
	}
	measFor := func(writer, slot int) Measurement {
		return Measurement{
			Mean:       float64(1000*writer + slot),
			MeanRead:   float64(slot) + 0.5,
			P99Read:    float64(writer) + 0.25,
			RetrySteps: 3.125,
		}
	}

	var writersWG, readerWG sync.WaitGroup
	stop := make(chan struct{})
	// A reader races Gets against the writers' renames; it must only ever
	// see misses or whole entries (sample for the shared key). A fresh
	// instance each poll defeats the fronting memory tier, so every Get is
	// a real disk read.
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			rd, err := Disk(dir)
			if err != nil {
				t.Error(err)
				return
			}
			if m, ok := rd.Get(key); ok && m != sample {
				t.Errorf("reader observed a torn shared entry: %+v", m)
				return
			}
		}
	}()
	for w := 0; w < writers; w++ {
		w := w
		writersWG.Add(1)
		go func() {
			defer writersWG.Done()
			c, err := Disk(dir) // one instance per "process"
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < perWriter; i++ {
				c.Put(key, sample) // shared key: all writers agree on the value
				slot := i%4 + 1
				c.Put(keyFor(w, slot), measFor(w, slot))
			}
		}()
	}
	writersWG.Wait()
	close(stop)
	readerWG.Wait()

	// Everything lands whole, readable from a cold instance.
	fresh, err := Disk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := fresh.Get(key); !ok || got != sample {
		t.Fatalf("shared key after concurrent writers = %+v, %v; want %+v, true", got, ok, sample)
	}
	for w := 0; w < writers; w++ {
		for slot := 1; slot <= 4; slot++ {
			if got, ok := fresh.Get(keyFor(w, slot)); !ok || got != measFor(w, slot) {
				t.Fatalf("writer %d slot %d = %+v, %v; want %+v, true", w, slot, got, ok, measFor(w, slot))
			}
		}
	}
	// No temp droppings left behind by the atomic write path.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if strings.Contains(ent.Name(), ".tmp") {
			t.Errorf("temp file %s survived the writers", ent.Name())
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	d, err := Disk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]Cache{"memory": Memory(), "disk": d} {
		c := c
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			for i := 0; i < 8; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for j := 0; j < 50; j++ {
						c.Put(key, sample)
						c.Get(key)
					}
				}()
			}
			wg.Wait()
			if got, ok := c.Get(key); !ok || got != sample {
				t.Fatalf("post-race Get = %+v, %v", got, ok)
			}
		})
	}
}

// TestDiskPutReportsWriteFailures: an entry that cannot be written is
// reported through logf, and the cell is still served from memory.
func TestDiskPutReportsWriteFailures(t *testing.T) {
	dir := t.TempDir()
	c, err := Disk(dir)
	if err != nil {
		t.Fatal(err)
	}
	var logged []string
	c.SetLogf(func(format string, args ...interface{}) {
		logged = append(logged, fmt.Sprintf(format, args...))
	})
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	c.Put(key, sample)
	if len(logged) != 1 || !strings.Contains(logged[0], "not written") {
		t.Fatalf("failed write logged %q, want one \"not written\" line", logged)
	}
	if got, ok := c.Get(key); !ok || got != sample {
		t.Fatalf("Get after a failed write = %+v, %v; want the memory tier's %+v", got, ok, sample)
	}
}
