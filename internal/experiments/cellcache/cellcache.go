// Package cellcache is the content-addressed per-cell result cache behind
// the sweep engine: each (workload, condition, variant, seed, device
// config) cell of a Figure 14/15-style grid maps to a stable key (derived
// by internal/experiments), and the cache stores the cell's *raw*
// measurement under it. Normalized values are deliberately excluded — they
// depend on which other cells share the grid, so the engine always
// recomputes them — which makes a cached measurement valid in any grid
// that happens to contain the same cell.
//
// Two tiers are provided. Memory is a process-lifetime map; Disk layers
// the same map over a directory of one-file-per-cell JSON entries, so a
// re-run of a grown grid only simulates cells it has never seen (a second
// identical run performs zero simulations). Both are safe for concurrent
// use by the engine's worker pool.
//
// Because disk entries feed byte-identity merges (the coordinator treats a
// cache hit as ground truth), the disk tier defends its
// integrity end to end: every entry carries a CRC-32C over its payload, a
// corrupt or torn entry is quarantined and treated as a miss (the engine
// recomputes the cell and the next Put heals the entry), and stale temp
// files left behind by crashed writers are garbage-collected on open.
package cellcache

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"readretry/internal/ssd/retrymetrics"
)

// Measurement is the raw (normalization-free) result of one simulated
// sweep cell, in the engine's native units (µs latencies, mean retry
// steps). Retry is the per-address retry accounting digest, present iff
// the sweep ran with ssd.Config.RetryMetrics — all of its fields
// round-trip exactly through JSON, so a cached or shard-merged cell
// renders metrics rows byte-identical to a freshly simulated one.
type Measurement struct {
	Mean       float64               `json:"mean_us"`
	MeanRead   float64               `json:"mean_read_us"`
	P99Read    float64               `json:"p99_read_us"`
	RetrySteps float64               `json:"retry_steps"`
	Retry      *retrymetrics.Summary `json:"retry,omitempty"`
}

// Cache stores cell measurements under content-addressed keys. The engine
// derives keys as lowercase hex SHA-256 digests; implementations may
// reject other shapes (the disk tier refuses anything that is not a safe
// file name). Implementations must be safe for concurrent use.
type Cache interface {
	// Get returns the measurement stored under key, if any.
	Get(key string) (Measurement, bool)
	// Put stores m under key, replacing any previous entry. Storage
	// failures are treated as cache misses on a later Get, never as
	// sweep errors, so Put reports nothing.
	Put(key string, m Measurement)
}

// memory is the in-process tier: a plain map under an RWMutex.
type memory struct {
	mu sync.RWMutex
	m  map[string]Measurement
}

// Memory returns an empty in-memory cache. It lives as long as the
// process; use Disk to persist across runs.
func Memory() Cache { return &memory{m: make(map[string]Measurement)} }

func (c *memory) Get(key string) (Measurement, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	m, ok := c.m[key]
	return m, ok
}

func (c *memory) Put(key string, m Measurement) {
	c.mu.Lock()
	c.m[key] = m
	c.mu.Unlock()
}

// entryVersion is the current on-disk entry format: a JSON envelope whose
// crc32c field covers the measurement payload bytes, so a flipped byte
// anywhere in the payload — or a torn/legacy entry that predates the
// envelope — is detected on read instead of flowing into a merge.
const entryVersion = 1

// castagnoli is the CRC-32C table (the same polynomial storage systems
// use for end-to-end data integrity).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// diskEntry is the on-disk envelope around one measurement.
type diskEntry struct {
	Version int             `json:"v"`
	Sum     string          `json:"crc32c"`
	Payload json.RawMessage `json:"m"`
}

func payloadSum(payload []byte) string {
	return fmt.Sprintf("%08x", crc32.Checksum(payload, castagnoli))
}

// QuarantineDir is the subdirectory (under the cache dir) corrupt entries
// are moved into for post-mortem inspection. validKey keys contain no '.'
// or '/', so the name can never collide with a live entry file.
const QuarantineDir = "quarantine"

// orphanTmpAge is how stale a *.json.tmp* file must be before open
// removes it as a crashed writer's leftover. The age gate keeps open from
// racing a live writer in another process whose temp file is mid-flight
// (deleting it would only degrade that Put to a miss, but there is no
// reason to take even that).
const orphanTmpAge = time.Hour

// DiskCache is the persistent tier: one checksummed JSON file per key
// under dir, fronted by a memory tier so repeated lookups within a run
// never touch the filesystem twice.
type DiskCache struct {
	dir      string
	mem      memory
	logf     func(format string, args ...interface{})
	corrupt  atomic.Int64
	qfailed  atomic.Int64
	stranded atomic.Int64
	orphans  int
}

// Disk returns a cache persisted under dir (created if absent), fronted
// by an in-memory tier. Entries are one JSON file per cell named by the
// key; writes go through a temp file, fsync, rename and directory fsync, so
// neither a crashed run nor a concurrent reader in another process ever
// observes a torn entry — many processes (a coordinator and its workers)
// may safely share one dir. Each entry carries a CRC-32C checksum over its
// payload: an entry that fails to parse or verify is quarantined under
// dir/quarantine and treated as a miss, so the engine recomputes the cell
// and the re-Put heals the entry. Opening also garbage-collects temp files
// older than an hour — the droppings of writers that crashed between
// CreateTemp and rename — without touching live entries. Concurrent
// writers of the same key land whole entries in some order; since keys are
// content addresses, both writes carry the same measurement and either
// outcome is correct.
func Disk(dir string) (*DiskCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cellcache: %w", err)
	}
	c := &DiskCache{dir: dir, mem: memory{m: make(map[string]Measurement)}}
	c.orphans = gcOrphanTmp(dir)
	return c, nil
}

// gcOrphanTmp removes stale atomic-write temp files from dir, returning
// how many it reclaimed. Failures are ignored — GC is hygiene, not
// correctness.
func gcOrphanTmp(dir string) int {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	cutoff := time.Now().Add(-orphanTmpAge) //lint:wallclock tmp-GC age gate compares file mtimes; hygiene only, never in any measurement
	n := 0
	for _, ent := range entries {
		if ent.IsDir() || !strings.Contains(ent.Name(), ".json.tmp") {
			continue
		}
		info, err := ent.Info()
		if err != nil || info.ModTime().After(cutoff) {
			continue
		}
		if os.Remove(filepath.Join(dir, ent.Name())) == nil {
			n++
		}
	}
	return n
}

// SetLogf installs an observer for integrity events (corrupt entries
// quarantined, entries not written). Set it before the cache is shared
// across goroutines.
func (c *DiskCache) SetLogf(logf func(format string, args ...interface{})) { c.logf = logf }

// CorruptCount reports how many corrupt disk entries this instance has
// detected and quarantined.
func (c *DiskCache) CorruptCount() int64 { return c.corrupt.Load() }

// QuarantineFailCount reports how many corrupt entries could not be
// moved into the quarantine directory and were removed outright instead.
// The cache still behaves correctly (the entry degrades to a permanent
// miss either way), but the bad bytes were lost to post-mortem
// inspection — a nonzero count on a healthy filesystem means the cache
// dir's permissions or layout need a look.
func (c *DiskCache) QuarantineFailCount() int64 { return c.qfailed.Load() }

// StrandedCount reports how many corrupt entries could be neither
// quarantined nor removed. A stranded entry is the one integrity case
// the cache cannot make permanent progress on: every future Get of that
// key will re-read the same corrupt bytes and re-count the corruption.
func (c *DiskCache) StrandedCount() int64 { return c.stranded.Load() }

// OrphansRemoved reports how many stale temp files open reclaimed.
func (c *DiskCache) OrphansRemoved() int { return c.orphans }

// validKey accepts exactly the keys the engine derives — non-empty
// hex/alphanumeric names that cannot traverse out of dir.
func validKey(key string) bool {
	if key == "" || len(key) > 128 {
		return false
	}
	for _, r := range key {
		switch {
		case r >= '0' && r <= '9', r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z',
			r == '-', r == '_':
		default:
			return false
		}
	}
	return true
}

func (c *DiskCache) path(key string) string { return filepath.Join(c.dir, key+".json") }

func (c *DiskCache) Get(key string) (Measurement, bool) {
	if m, ok := c.mem.Get(key); ok {
		return m, true
	}
	if !validKey(key) {
		return Measurement{}, false
	}
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return Measurement{}, false
	}
	m, err := decodeEntry(data)
	if err != nil {
		c.quarantine(key, err)
		return Measurement{}, false
	}
	c.mem.Put(key, m)
	return m, true
}

// decodeEntry parses and verifies one on-disk entry.
func decodeEntry(data []byte) (Measurement, error) {
	var e diskEntry
	if err := json.Unmarshal(data, &e); err != nil {
		return Measurement{}, fmt.Errorf("cellcache: entry is not a checksummed envelope: %w", err)
	}
	if e.Version != entryVersion {
		return Measurement{}, fmt.Errorf("cellcache: entry version %d, want %d", e.Version, entryVersion)
	}
	if sum := payloadSum(e.Payload); sum != e.Sum {
		return Measurement{}, fmt.Errorf("cellcache: entry checksum %s does not match payload (%s)", e.Sum, sum)
	}
	var m Measurement
	if err := json.Unmarshal(e.Payload, &m); err != nil {
		return Measurement{}, fmt.Errorf("cellcache: entry payload: %w", err)
	}
	return m, nil
}

// quarantine moves a corrupt entry aside — dir/quarantine/<key>.json — so
// the miss it degrades to is permanent (the next Get cannot trip over it
// again) and the bad bytes stay available for inspection. If the move
// fails the entry is removed outright and the failure is counted
// (QuarantineFailCount) with its cause in the log line — losing the
// evidence is an integrity event in its own right, not a silent detail.
// If even the removal fails the entry is stranded (StrandedCount): the
// cache stays correct (Get keeps reporting a miss) but cannot make the
// miss permanent. Every outcome is counted and surfaced through the
// logf observer.
func (c *DiskCache) quarantine(key string, cause error) {
	c.corrupt.Add(1)
	path := c.path(key)
	qdir := filepath.Join(c.dir, QuarantineDir)
	var mkErr, mvErr error
	if mkErr = os.MkdirAll(qdir, 0o755); mkErr == nil {
		mvErr = os.Rename(path, filepath.Join(qdir, key+".json"))
	}
	if mkErr == nil && mvErr == nil {
		if c.logf != nil {
			c.logf("cellcache: corrupt entry %s quarantined (%v); treating as a miss, will recompute", key, cause)
		}
		return
	}
	c.qfailed.Add(1)
	qErr := mkErr
	if qErr == nil {
		qErr = mvErr
	}
	if rmErr := os.Remove(path); rmErr != nil {
		c.stranded.Add(1)
		if c.logf != nil {
			c.logf("cellcache: corrupt entry %s stranded (%v); quarantine failed (%v) and removal failed (%v)", key, cause, qErr, rmErr)
		}
		return
	}
	if c.logf != nil {
		c.logf("cellcache: corrupt entry %s removed (%v); quarantine failed: %v", key, cause, qErr)
	}
}

// Put stores m in the memory tier and writes its disk entry durably. A
// failed write is reported through the logf observer and leaves the cell
// to be recomputed by a later run; it is never a sweep error.
func (c *DiskCache) Put(key string, m Measurement) {
	c.mem.Put(key, m)
	if !validKey(key) {
		return
	}
	err := writeEntry(c.path(key), m)
	if err != nil && c.logf != nil {
		c.logf("cellcache: entry %s not written (%v); a later run recomputes the cell", key, err)
	}
}

// writeEntry publishes m's checksummed envelope at path all-or-nothing and
// durably: a temp file in the target's directory, fsync'd, renamed into
// place, and the directory fsync'd so the rename survives a crash too.
// Workers sharing the directory, and the coordinator whose store it is,
// treat a visible entry as durable work they will never redo; a failure
// leaves at worst a missing entry, never a torn one.
func writeEntry(path string, m Measurement) error {
	payload, err := json.Marshal(m)
	if err != nil {
		return err
	}
	data, err := json.Marshal(diskEntry{Version: entryVersion, Sum: payloadSum(payload), Payload: payload})
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return SyncDir(filepath.Dir(path))
}

// SyncDir fsyncs a directory, so that a name just created in it, or
// renamed into it, survives a crash.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
