package coord

// Crash-safety suite for the write-ahead journal: every test models a
// coordinator SIGKILL by simply abandoning the live Coordinator (no Close,
// no goodbye — exactly what the kernel does) and recovering a fresh one
// from the same state dir. All tests run on the fake clock and perform
// zero time.Sleep; worker traffic is driven through the coordinator's
// methods directly, the same surface the HTTP layer calls.

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"readretry/internal/experiments"
	"readretry/internal/experiments/cellcache"
	"readretry/internal/experiments/shard"
)

// completeShard leases one shard, executes it over cache, and delivers the
// record, returning the number of cells it carried. ok is false when no
// lease was available.
func completeShard(t *testing.T, c *Coordinator, cfg experiments.Config, variants []experiments.Variant, cache cellcache.Cache) (int, bool) {
	t.Helper()
	l, ok := c.Lease("w")
	if !ok {
		return 0, false
	}
	runCfg := cfg
	runCfg.Parallelism = 1
	runCfg.Cache = cache
	rec, err := shard.Run(context.Background(), runCfg, variants, l.Manifest, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Complete(l.ID, rec); err != nil {
		t.Fatal(err)
	}
	return len(rec.Results), true
}

func journalLines(t *testing.T, stateDir string) []string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(stateDir, JournalFilename))
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimRight(string(data), "\n"), "\n")
}

// TestRecoverFreshStateDir: recovering an empty state dir yields a working
// journaled coordinator, and a second recovery sees what the first
// acknowledged.
func TestRecoverFreshStateDir(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	c, stats, err := Recover(dir, Options{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Jobs != 0 || stats.Records != 0 || stats.TornTail {
		t.Fatalf("fresh state dir recovered %+v, want zero stats", stats)
	}
	spec := SpecOf(testConfig(7), testVariants())
	j, err := c.Submit(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	// SIGKILL; recover.
	c2, stats2, err := Recover(dir, Options{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Jobs != 1 {
		t.Fatalf("recovery stats %+v, want 1 job", stats2)
	}
	if _, ok := c2.Job(j.ID); !ok {
		t.Fatalf("job %.12s… lost across restart", j.ID)
	}
	// Re-submission after restart (a restarted -serve does this) dedupes
	// against the replayed job and must not grow the journal.
	before := len(journalLines(t, dir))
	if _, err := c2.Submit(spec, 5); err != nil {
		t.Fatal(err)
	}
	if after := len(journalLines(t, dir)); after != before {
		t.Fatalf("dedup re-submission grew the journal %d → %d lines", before, after)
	}
}

// TestCoordinatorCrashRestartZeroResim is the acceptance scenario: a
// coordinator with a state dir and a disk cache is SIGKILLed after one of
// two shards completed. The recovered coordinator must hold the merged
// half (the journal's submission replayed over the cache), lease out only
// the other half, and the drained result must be byte-identical to a
// single-process run — with the post-restart worker's Put count proving
// zero already-completed cells were re-simulated.
func TestCoordinatorCrashRestartZeroResim(t *testing.T) {
	cfg := e2eConfig(7)
	variants := testVariants()
	unsharded, err := experiments.RunSweep(context.Background(), cfg, variants)
	if err != nil {
		t.Fatal(err)
	}

	state := t.TempDir()
	coordCache, err := cellcache.Disk(filepath.Join(state, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	c, _, err := Recover(state, Options{Clock: clk, Cache: coordCache})
	if err != nil {
		t.Fatal(err)
	}
	j, err := c.Submit(SpecOf(cfg, variants), 2)
	if err != nil {
		t.Fatal(err)
	}
	total := j.grid.Total()

	// One shard completes; then the coordinator dies mid-sweep. The other
	// shard's lease is simply lost with it.
	doneCells, ok := completeShard(t, c, cfg, variants, cellcache.Memory())
	if !ok || doneCells == 0 || doneCells >= total {
		t.Fatalf("first shard covered %d of %d cells; need a strict subset", doneCells, total)
	}
	if _, ok := c.Lease("doomed"); !ok {
		t.Fatal("no second lease before the crash")
	}
	// SIGKILL: the Coordinator object is abandoned, fsync'd journal and
	// disk cache survive.

	coordCache2, err := cellcache.Disk(filepath.Join(state, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	c2, stats, err := Recover(state, Options{Clock: newFakeClock(), Cache: coordCache2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Jobs != 1 || stats.Records != 1 {
		t.Fatalf("recovery stats %+v, want 1 job, 1 record", stats)
	}
	if stats.MergedCells != doneCells {
		t.Fatalf("recovered %d merged cells, want the completed shard's %d", stats.MergedCells, doneCells)
	}
	j2, ok := c2.Job(j.ID)
	if !ok {
		t.Fatalf("job %.12s… not recovered", j.ID)
	}

	// A worker (empty cache — the strict proof) drains what remains. Its
	// Put count is exactly the number of simulations it performed.
	resume := &countingCache{c: cellcache.Memory()}
	shardsRun := 0
	for {
		if _, ok := completeShard(t, c2, cfg, variants, resume); !ok {
			break
		}
		shardsRun++
	}
	if shardsRun != 1 {
		t.Fatalf("restarted coordinator leased %d shards, want only the 1 the crash lost", shardsRun)
	}
	if resume.count() != total-doneCells {
		t.Fatalf("post-restart worker simulated %d cells, want %d (zero re-simulation of the %d recovered)",
			resume.count(), total-doneCells, doneCells)
	}

	res, err := j2.Result()
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "crash-restart", unsharded, res)
}

// TestRecoverWithoutCache: with no cache passed, Recover's own store
// under the state dir carries every merged measurement — a fully
// completed sweep recovers finalized, with an identical result.
func TestRecoverWithoutCache(t *testing.T) {
	cfg := testConfig(7)
	variants := testVariants()
	unsharded, err := experiments.RunSweep(context.Background(), cfg, variants)
	if err != nil {
		t.Fatal(err)
	}

	state := t.TempDir()
	c, _, err := Recover(state, Options{Clock: newFakeClock()})
	if err != nil {
		t.Fatal(err)
	}
	j, err := c.Submit(SpecOf(cfg, variants), 2)
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := completeShard(t, c, cfg, variants, cellcache.Memory()); !ok {
			break
		}
	}
	if _, err := j.Result(); err != nil {
		t.Fatal(err)
	}
	// SIGKILL; recover with no cache.
	c2, stats, err := Recover(state, Options{Clock: newFakeClock()})
	if err != nil {
		t.Fatal(err)
	}
	if stats.DoneJobs != 1 {
		t.Fatalf("recovery stats %+v, want 1 finalized job", stats)
	}
	j2, _ := c2.Job(j.ID)
	res, err := j2.Result()
	if err != nil {
		t.Fatalf("recovered job not finalized: %v", err)
	}
	assertIdentical(t, "recover-no-cache", unsharded, res)
	if _, ok := c2.Lease("w"); ok {
		t.Fatal("finalized recovered job still leased work out")
	}
}

// TestJournalTornTailTolerated: a crash mid-append leaves a torn final
// line; recovery discards it (it was never acknowledged) and replays
// everything before it. An entry acknowledged after that recovery must
// survive the next one, so the torn bytes cannot stay in front of it.
func TestJournalTornTailTolerated(t *testing.T) {
	state := t.TempDir()
	c, _, err := Recover(state, Options{Clock: newFakeClock()})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(7)
	variants := testVariants()
	if _, err := c.Submit(SpecOf(cfg, variants), 2); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(state, JournalFilename)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`0badc0de {"type":"complete","rec`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	c2, stats, err := Recover(state, Options{Clock: newFakeClock()})
	if err != nil {
		t.Fatalf("torn tail refused: %v", err)
	}
	if !stats.TornTail || stats.Jobs != 1 {
		t.Fatalf("recovery stats %+v, want torn tail + 1 job", stats)
	}
	if got := len(c2.Jobs()); got != 1 {
		t.Fatalf("recovered %d jobs, want 1", got)
	}

	cells, ok := completeShard(t, c2, cfg, variants, cellcache.Memory())
	if !ok {
		t.Fatal("no shard to complete after recovery")
	}
	_, stats, err = Recover(state, Options{Clock: newFakeClock()})
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	if stats.TornTail || stats.Records != 1 || stats.MergedCells != cells {
		t.Fatalf("second recovery: %v, torn tail %v; want 1 record, %d cells, no torn tail", stats, stats.TornTail, cells)
	}
}

// TestJournalMidFileCorruptionRefused: damage to an *acknowledged* entry —
// a flipped byte anywhere before the final line — must refuse recovery
// loudly rather than silently dropping state.
func TestJournalMidFileCorruptionRefused(t *testing.T) {
	state := t.TempDir()
	c, _, err := Recover(state, Options{Clock: newFakeClock()})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(7)
	variants := testVariants()
	if _, err := c.Submit(SpecOf(cfg, variants), 2); err != nil {
		t.Fatal(err)
	}
	if _, ok := completeShard(t, c, cfg, variants, cellcache.Memory()); !ok {
		t.Fatal("no shard to complete")
	}

	path := filepath.Join(state, JournalFilename)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(journalLines(t, state)) < 2 {
		t.Fatal("need at least 2 journal lines for a mid-file flip")
	}
	data[20] ^= 0xff // inside the first (submit) line
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Recover(state, Options{Clock: newFakeClock()}); err == nil ||
		!strings.Contains(err.Error(), "corrupt mid-file") {
		t.Fatalf("mid-file corruption recovered silently: %v", err)
	}
}

// TestJournalSkipsNoOpDeliveries: re-delivering an already-merged record
// must not grow the journal, or a retrying worker could balloon it.
func TestJournalSkipsNoOpDeliveries(t *testing.T) {
	state := t.TempDir()
	c, _, err := Recover(state, Options{Clock: newFakeClock()})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(7)
	variants := testVariants()
	if _, err := c.Submit(SpecOf(cfg, variants), 2); err != nil {
		t.Fatal(err)
	}
	l, ok := c.Lease("w")
	if !ok {
		t.Fatal("no lease")
	}
	runCfg := cfg
	runCfg.Parallelism = 1
	rec, err := shard.Run(context.Background(), runCfg, variants, l.Manifest, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Complete(l.ID, rec); err != nil {
		t.Fatal(err)
	}
	lines := len(journalLines(t, state))
	for i := 0; i < 3; i++ {
		if dup, err := c.Complete(l.ID, rec); err != nil || !dup {
			t.Fatalf("re-delivery %d: dup=%v err=%v", i, dup, err)
		}
	}
	if got := len(journalLines(t, state)); got != lines {
		t.Fatalf("no-op re-deliveries grew the journal %d → %d lines", lines, got)
	}
}

// TestDrainRefusesLeasesKeepsCompletes: Drain is the graceful-shutdown
// half-open state — no new grants, but in-flight work still merges and the
// journal still marks it.
func TestDrainRefusesLeasesKeepsCompletes(t *testing.T) {
	state := t.TempDir()
	c, _, err := Recover(state, Options{Clock: newFakeClock()})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(7)
	variants := testVariants()
	if _, err := c.Submit(SpecOf(cfg, variants), 2); err != nil {
		t.Fatal(err)
	}
	l, ok := c.Lease("w")
	if !ok {
		t.Fatal("no lease")
	}
	c.Drain()
	if _, ok := c.Lease("w2"); ok {
		t.Fatal("draining coordinator granted a lease")
	}
	if _, err := c.Heartbeat(l.ID); err != nil {
		t.Fatalf("draining coordinator rejected a live heartbeat: %v", err)
	}
	runCfg := cfg
	runCfg.Parallelism = 1
	rec, err := shard.Run(context.Background(), runCfg, variants, l.Manifest, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Complete(l.ID, rec); err != nil {
		t.Fatalf("draining coordinator refused an in-flight complete: %v", err)
	}
	// The completion was journaled: recovery sees it.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	_, stats, err := Recover(state, Options{Clock: newFakeClock()})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 1 {
		t.Fatalf("drained completion not journaled: %+v", stats)
	}
}

// TestCorruptCacheEntryQuarantinedRecomputedHealed is the cache-integrity
// acceptance path at the coordinator level: one flipped byte in the
// coordinator's disk cache is detected during a re-submission's prefill,
// quarantined, surfaced in the corrupt counter, recomputed by a worker —
// exactly one simulation — and the merged result is still byte-identical.
func TestCorruptCacheEntryQuarantinedRecomputedHealed(t *testing.T) {
	cfg := e2eConfig(7)
	variants := testVariants()
	unsharded, err := experiments.RunSweep(context.Background(), cfg, variants)
	if err != nil {
		t.Fatal(err)
	}

	cacheDir := t.TempDir()
	cache1, err := cellcache.Disk(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	c1 := New(Options{Clock: newFakeClock(), Cache: cache1})
	j1, err := c1.Submit(SpecOf(cfg, variants), 2)
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := completeShard(t, c1, cfg, variants, cellcache.Memory()); !ok {
			break
		}
	}
	if _, err := j1.Result(); err != nil {
		t.Fatal(err)
	}

	// Flip one byte in one on-disk entry.
	entries, err := os.ReadDir(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := ""
	for _, ent := range entries {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".json") {
			continue
		}
		path := filepath.Join(cacheDir, ent.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xff
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		corrupted = ent.Name()
		break
	}
	if corrupted == "" {
		t.Fatal("no cache entry to corrupt")
	}

	// A fresh coordinator over the poisoned cache: prefill detects and
	// quarantines the bad entry and treats it as a miss.
	cache2, err := cellcache.Disk(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	c2 := New(Options{Clock: newFakeClock(), Cache: cache2})
	j2, err := c2.Submit(SpecOf(cfg, variants), 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := cache2.CorruptCount(); got != 1 {
		t.Fatalf("CorruptCount = %d, want 1", got)
	}
	if _, err := os.Stat(filepath.Join(cacheDir, cellcache.QuarantineDir, corrupted)); err != nil {
		t.Fatalf("corrupt entry not quarantined: %v", err)
	}
	st, _ := c2.Status(j2.ID)
	if st.CellsDone != st.TotalCells-1 {
		t.Fatalf("prefill merged %d of %d cells, want all but the corrupt one", st.CellsDone, st.TotalCells)
	}

	// Recompute-and-heal: one worker pass re-simulates exactly the one
	// lost cell (Put count proves it), and the merge is still identical.
	resim := &countingCache{c: cache2}
	for {
		if _, ok := completeShard(t, c2, cfg, variants, resim); !ok {
			break
		}
	}
	if resim.count() != 1 {
		t.Fatalf("recomputed %d cells, want exactly the 1 corrupted", resim.count())
	}
	res, err := j2.Result()
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "corrupt-cache-heal", unsharded, res)

	// Healed on disk: a cold instance verifies the re-Put entry.
	cache3, err := cellcache.Disk(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	key := strings.TrimSuffix(corrupted, ".json")
	if _, ok := cache3.Get(key); !ok {
		t.Fatal("corrupt entry not healed by recompute")
	}
	if got := cache3.CorruptCount(); got != 0 {
		t.Fatalf("healed entry still corrupt on re-read: count %d", got)
	}
}

// TestJournalHoldsOnlySubmitsAndMarkers: after a full sweep the journal is
// the submission plus one marker per shard, with no measurement in it,
// and the store holds each cell once.
func TestJournalHoldsOnlySubmitsAndMarkers(t *testing.T) {
	cfg := testConfig(7)
	variants := testVariants()
	state := t.TempDir()
	c, _, err := Recover(state, Options{Clock: newFakeClock()})
	if err != nil {
		t.Fatal(err)
	}
	j, err := c.Submit(SpecOf(cfg, variants), 2)
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := completeShard(t, c, cfg, variants, cellcache.Memory()); !ok {
			break
		}
	}
	if _, err := j.Result(); err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	for i, line := range journalLines(t, state) {
		e, err := parseJournalLine([]byte(line))
		if err != nil {
			t.Fatalf("line %d: %v", i+1, err)
		}
		count[e.Type]++
		for _, key := range []string{`"record"`, `"results"`, `"measurement"`} {
			if strings.Contains(line, key) {
				t.Errorf("line %d carries %s: %.120s…", i+1, key, line)
			}
		}
	}
	if count["submit"] != 1 || count["complete"] != 2 || len(count) != 2 {
		t.Errorf("journal entries by type %v, want 1 submit and 2 complete markers", count)
	}
	entries, err := os.ReadDir(filepath.Join(state, "cells"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != j.grid.Total() {
		t.Errorf("store holds %d entries, want one per cell (%d)", len(entries), j.grid.Total())
	}
}

// TestRecordCarryingJournalRecovers: a journal whose completion entries
// embed their records, as journals once did (testdata/records.journal: a
// two-shard sweep with one shard delivered), still recovers. Its
// completion entry counts as a marker, but no measurement is merged out of
// the journal: the cells are not in the store, so the whole sweep is
// leased again, and the drained result is identical to a single-process
// run.
func TestRecordCarryingJournalRecovers(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "records.journal"))
	if err != nil {
		t.Fatal(err)
	}
	state := t.TempDir()
	if err := os.WriteFile(filepath.Join(state, JournalFilename), data, 0o644); err != nil {
		t.Fatal(err)
	}
	c, stats, err := Recover(state, Options{Clock: newFakeClock()})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Jobs != 1 || stats.Records != 1 || stats.MergedCells != 0 || stats.TornTail {
		t.Fatalf("recovery stats %+v, want 1 job, 1 marker, 0 cells", stats)
	}
	j, _ := c.Job(c.Jobs()[0].ID)
	cfg := j.Spec.Config()
	for {
		if _, ok := completeShard(t, c, cfg, j.Spec.Variants, cellcache.Memory()); !ok {
			break
		}
	}
	got, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	want, err := experiments.RunSweep(context.Background(), cfg, j.Spec.Variants)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "record-carrying journal", want, got)
}

// TestCrashBetweenStoreAndMarker: a completion whose cells reached the
// store but whose marker never reached the journal (the journal's file is
// closed underneath the coordinator, as in
// TestJournalFailure503IsRetryableRefusal) is refused with a 503 and
// merges nothing. A restart still finds those cells in the store: the
// worker that drains the sweep simulates none of them.
func TestCrashBetweenStoreAndMarker(t *testing.T) {
	cfg := e2eConfig(7)
	variants := testVariants()
	state := t.TempDir()
	c, _, err := Recover(state, Options{Clock: newFakeClock()})
	if err != nil {
		t.Fatal(err)
	}
	j, err := c.Submit(SpecOf(cfg, variants), 2)
	if err != nil {
		t.Fatal(err)
	}
	l, ok := c.Lease("w")
	if !ok {
		t.Fatal("no lease")
	}
	runCfg := cfg
	runCfg.Parallelism = 1
	rec, err := shard.Run(context.Background(), runCfg, variants, l.Manifest, "")
	if err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	c.journal.f.Close()
	c.mu.Unlock()
	body, err := json.Marshal(completeRequest{LeaseID: l.ID, Record: rec})
	if err != nil {
		t.Fatal(err)
	}
	if code := post(NewServer(c).Handler(), "/complete", body).Code; code != http.StatusServiceUnavailable {
		t.Fatalf("/complete with a dead journal answered %d, want 503", code)
	}
	if st, _ := c.Status(j.ID); st.CellsDone != 0 || st.ShardsDone != 0 {
		t.Fatalf("refused completion changed the job: %+v", st)
	}

	// SIGKILL; recover over the same state dir.
	c2, stats, err := Recover(state, Options{Clock: newFakeClock()})
	if err != nil {
		t.Fatal(err)
	}
	stored := len(rec.Results)
	if stats.Records != 0 || stats.MergedCells != stored {
		t.Fatalf("recovery stats %+v, want no marker and the %d stored cells", stats, stored)
	}
	resume := &countingCache{c: cellcache.Memory()}
	for {
		if _, ok := completeShard(t, c2, cfg, variants, resume); !ok {
			break
		}
	}
	total := j.grid.Total()
	if resume.count() != total-stored {
		t.Fatalf("post-restart worker simulated %d cells, want %d (none of the %d stored)", resume.count(), total-stored, stored)
	}
	j2, _ := c2.Job(j.ID)
	got, err := j2.Result()
	if err != nil {
		t.Fatal(err)
	}
	want, err := experiments.RunSweep(context.Background(), cfg, variants)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "store without marker", want, got)
}
