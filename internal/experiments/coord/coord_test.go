package coord

// End-to-end fault-injection suite over httptest: real Server, real
// Client, real Worker loops — with workers killed mid-shard, completions
// duplicated, and foreign records injected. The acceptance bar for every
// scenario is the shard subsystem's: the merged Result, and its CSV bytes,
// identical to a single-process experiments.RunSweep.

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"readretry/internal/experiments"
	"readretry/internal/experiments/cellcache"
	"readretry/internal/experiments/shard"
	"readretry/internal/ssd"
)

// countingCache counts real Put calls — each one is a simulation some
// worker performed (hits never Put) — to prove crash-resume reuses work.
type countingCache struct {
	mu   sync.Mutex
	c    cellcache.Cache
	puts int
}

func (cc *countingCache) Get(key string) (cellcache.Measurement, bool) { return cc.c.Get(key) }
func (cc *countingCache) Put(key string, m cellcache.Measurement) {
	cc.mu.Lock()
	cc.puts++
	cc.mu.Unlock()
	cc.c.Put(key, m)
}
func (cc *countingCache) count() int {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.puts
}

// e2eConfig is a 2×2×2-cell grid (two workloads, two conditions, two
// variants): big enough that a 2-shard plan puts 4 cells in each shard, so
// a kill after the first cell genuinely interrupts work.
func e2eConfig(seed uint64) experiments.Config {
	cfg := testConfig(seed)
	cfg.Conditions = []experiments.Condition{
		{PEC: 1000, Months: 3}, {PEC: 2000, Months: 6},
	}
	return cfg
}

func startServer(t *testing.T, c *Coordinator) *Client {
	t.Helper()
	srv := httptest.NewServer(NewServer(c).Handler())
	t.Cleanup(srv.Close)
	return NewClient(srv.URL)
}

// TestSpecRoundTrip: the wire spec reconstructs a Config that hashes
// identically — the invariant that lets workers verify leases against
// their own engine.
func TestSpecRoundTrip(t *testing.T) {
	cfg := specFixture()
	variants := testVariants()
	want := configHash(t, cfg, variants)
	spec := wireRoundTrip(t, SpecOf(cfg, variants))
	if got := configHash(t, spec.Config(), spec.Variants); got != want {
		t.Fatalf("spec JSON round-trip changed the config hash: %s → %s", want, got)
	}
}

// TestSpecCarriesEveryConfigField: a Config field that defines the sweep
// but is missing from Spec would make a distributed run silently differ
// from an in-process one. Config is the experiments.Definition Spec
// carries plus exactly the fields local to the process running the sweep,
// and the Definition survives SpecOf, JSON and Config() whole — including
// fields added after this test was written, which TestSpecRoundTrip's hash
// comparison cannot name.
func TestSpecCarriesEveryConfigField(t *testing.T) {
	var others []string
	ct := reflect.TypeOf(experiments.Config{})
	for i := 0; i < ct.NumField(); i++ {
		if f := ct.Field(i); f.IsExported() && !f.Anonymous {
			others = append(others, f.Name)
		}
	}
	if want := []string{"Parallelism", "Progress", "Sink", "Cache"}; !reflect.DeepEqual(others, want) {
		t.Errorf("Config's fields beside its Definition are %v, want the process-local %v", others, want)
	}
	cfg := specFixture()
	def := reflect.ValueOf(cfg.Definition)
	for i := 0; i < def.NumField(); i++ {
		if def.Field(i).IsZero() {
			t.Errorf("Definition.%s is zero in specFixture: give it a value there", def.Type().Field(i).Name)
		}
	}
	if got := wireRoundTrip(t, SpecOf(cfg, testVariants())).Config(); !reflect.DeepEqual(got.Definition, cfg.Definition) {
		t.Errorf("the Definition does not survive SpecOf, JSON and Spec.Config:\n got %+v\nwant %+v", got.Definition, cfg.Definition)
	}
}

// TestEmptyRostersSurviveTheWire: an explicitly empty Workloads or
// Conditions list is a 0-cell grid in process, unlike nil (the default
// roster), so it must cross the wire as empty, not as absent.
func TestEmptyRostersSurviveTheWire(t *testing.T) {
	for name, empty := range map[string]func(*experiments.Config){
		"workloads":  func(c *experiments.Config) { c.Workloads = []string{} },
		"conditions": func(c *experiments.Config) { c.Conditions = []experiments.Condition{} },
	} {
		cfg := experiments.QuickConfig()
		empty(&cfg)
		variants := experiments.Figure14Variants()
		spec := wireRoundTrip(t, SpecOf(cfg, variants))
		for _, side := range []struct {
			label string
			cfg   experiments.Config
		}{{"in process", cfg}, {"after the wire", spec.Config()}} {
			g, err := experiments.NewGrid(side.cfg, variants)
			if err != nil {
				t.Fatalf("%s %s: %v", name, side.label, err)
			}
			if g.Total() != 0 {
				t.Errorf("empty %s %s: %d cells, want 0", name, side.label, g.Total())
			}
		}
		if want, got := configHash(t, cfg, variants), configHash(t, spec.Config(), spec.Variants); got != want {
			t.Errorf("empty %s: config hash %s → %s across the wire", name, want, got)
		}
	}
}

// configHash is experiments.ConfigHash over the sweep's resolved grid.
func configHash(t *testing.T, cfg experiments.Config, variants []experiments.Variant) string {
	t.Helper()
	g, err := experiments.NewGrid(cfg, variants)
	if err != nil {
		t.Fatal(err)
	}
	h, err := experiments.ConfigHash(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// specFixture is a config with every sweep-defining field set.
func specFixture() experiments.Config {
	cfg := e2eConfig(7)
	cfg.Temps = []float64{25, 85.5}
	cfg.Devices = []ssd.Device{ssd.DeviceTLC, ssd.DeviceQLC16}
	return cfg
}

// wireRoundTrip sends spec through JSON, as a submission travels.
func wireRoundTrip(t *testing.T, spec Spec) Spec {
	t.Helper()
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var out Spec
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSubmitClampsShardCount: a shard count above the cell count plans one
// shard per cell, so a small request cannot make the coordinator allocate
// a manifest per requested shard.
func TestSubmitClampsShardCount(t *testing.T) {
	for _, shards := range []int{7, 1 << 20} {
		c := New(Options{Clock: newFakeClock()})
		j, err := c.Submit(SpecOf(testConfig(7), testVariants()), shards)
		if err != nil {
			t.Fatal(err)
		}
		if st, _ := c.Status(j.ID); st.ShardCount != 4 {
			t.Errorf("Submit(%d shards) planned %d shards for a 4-cell grid, want 4", shards, st.ShardCount)
		}
	}
}

// TestEndToEndWorkerKilledMidShard is the headline scenario: two shards,
// worker 1 is killed after its first cell (lease never completed, no
// record delivered), its lease expires on the fake clock, and worker 2 —
// sharing the dead worker's cache, as a restarted process would — drains
// the re-leased shard plus the rest. The merged result must be
// byte-identical to a single-process RunSweep, and the crash-resume path
// must have reused the dead worker's finished cells.
func TestEndToEndWorkerKilledMidShard(t *testing.T) {
	cfg := e2eConfig(7)
	variants := testVariants()
	unsharded, err := experiments.RunSweep(context.Background(), cfg, variants)
	if err != nil {
		t.Fatal(err)
	}

	clk := newFakeClock()
	c := New(Options{Clock: clk, LeaseTTL: 10 * time.Second, Cache: cellcache.Memory()})
	client := startServer(t, c)

	receipt, err := client.Submit(context.Background(), SpecOf(cfg, variants), 2)
	if err != nil {
		t.Fatal(err)
	}
	if receipt.Done || receipt.Shards != 2 {
		t.Fatalf("receipt = %+v, want 2 shards, not done", receipt)
	}

	// The two workers share one cache — worker 2 stands in for the same
	// machine's restarted process, resuming over the cells the kill left
	// behind.
	workerCache := &countingCache{c: cellcache.Memory()}

	// Worker 1: killed after its first completed cell. Canceling the
	// worker's context models SIGKILL faithfully at the protocol level:
	// no completion record, no further heartbeats, lease left dangling.
	killCtx, kill := context.WithCancel(context.Background())
	w1 := &Worker{
		Client: client, ID: "w1", Cache: workerCache, Parallelism: 1,
		Poll: time.Millisecond,
		OnCell: func(m shard.Manifest, done, total int) {
			if done == 1 {
				kill()
			}
		},
	}
	if err := w1.Run(killCtx); !errors.Is(err, context.Canceled) {
		t.Fatalf("killed worker returned %v, want context.Canceled", err)
	}
	cellsBeforeKill := workerCache.count()
	if cellsBeforeKill == 0 {
		t.Fatal("kill landed before any cell persisted; nothing to resume")
	}

	st, err := client.Status(context.Background(), receipt.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done || st.ShardsDone != 0 {
		t.Fatalf("after kill: status %+v, want nothing completed", st)
	}

	// The lease dies at its deadline, and worker 2 re-leases its shard.
	clk.Advance(c.LeaseTTL())

	// Worker 2 drains both shards, then sees the coordinator idle (204)
	// until we stop it.
	w2Ctx, stopW2 := context.WithCancel(context.Background())
	defer stopW2()
	w2Done := make(chan error, 1)
	w2 := &Worker{Client: client, ID: "w2", Cache: workerCache, Parallelism: 1, Poll: time.Millisecond}
	go func() { w2Done <- w2.Run(w2Ctx) }()

	res, err := client.Result(context.Background(), receipt.JobID)
	if err != nil {
		t.Fatal(err)
	}
	stopW2()
	if err := <-w2Done; !errors.Is(err, context.Canceled) {
		t.Fatalf("worker 2 exited with %v, want context.Canceled after stop", err)
	}

	assertIdentical(t, "kill-mid-shard", unsharded, res)

	// Crash-resume actually resumed: total simulations across both workers
	// equal the grid exactly — the kill's finished cells were never redone.
	if total := c.jobs[receipt.JobID].grid.Total(); workerCache.count() != total {
		t.Errorf("workers simulated %d cells for a %d-cell grid; crash-resume re-simulated %d",
			workerCache.count(), total, workerCache.count()-total)
	}

	if st, err := client.Status(context.Background(), receipt.JobID); err != nil || !st.Done {
		t.Fatalf("final status %+v, %v", st, err)
	}
}

// TestDuplicateCompleteIdempotent: delivering the same completion record
// twice — the retry of a worker whose first /complete response was lost —
// flags the second as duplicate, changes nothing, and the final result is
// still byte-identical.
func TestDuplicateCompleteIdempotent(t *testing.T) {
	cfg := e2eConfig(7)
	variants := testVariants()
	unsharded, err := experiments.RunSweep(context.Background(), cfg, variants)
	if err != nil {
		t.Fatal(err)
	}

	c := New(Options{Clock: newFakeClock()})
	client := startServer(t, c)
	receipt, err := client.Submit(context.Background(), SpecOf(cfg, variants), 2)
	if err != nil {
		t.Fatal(err)
	}

	j, _ := c.Job(receipt.JobID)
	var leaseID string
	var firstRec *shard.Record
	for i := range j.plan.Shards {
		l, ok := client.mustLease(t, "w")
		if !ok {
			t.Fatalf("no lease for shard %d", i)
		}
		rec, err := shard.Run(context.Background(), cfg, variants, l.Manifest, "")
		if err != nil {
			t.Fatal(err)
		}
		dup, err := client.Complete(context.Background(), l.ID, rec)
		if err != nil || dup {
			t.Fatalf("first complete of shard %d: dup=%v err=%v", l.Manifest.Index, dup, err)
		}
		if firstRec == nil {
			leaseID, firstRec = l.ID, rec
		}
	}
	// Redeliver the first record, twice more for good measure.
	for i := 0; i < 2; i++ {
		dup, err := client.Complete(context.Background(), leaseID, firstRec)
		if err != nil {
			t.Fatalf("duplicate delivery %d: %v", i, err)
		}
		if !dup {
			t.Fatalf("duplicate delivery %d not flagged as duplicate", i)
		}
	}

	res, err := client.Result(context.Background(), receipt.JobID)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "duplicate-complete", unsharded, res)
}

// TestCompleteDerivesCacheKeys: the coordinator writes delivered cells
// through to its cache under the keys it derives from the grid itself. A
// /complete body whose results each carry a "key" naming another cell —
// what an older or hostile worker might send — must leave the cache
// holding exactly each cell's experiments.CellKey entry with that cell's
// own measurement, and a duplicate delivery must write nothing.
func TestCompleteDerivesCacheKeys(t *testing.T) {
	cfg := testConfig(7)
	variants := testVariants()
	cache := &countingCache{c: cellcache.Memory()}
	c := New(Options{Clock: newFakeClock(), Cache: cache})
	srv := httptest.NewServer(NewServer(c).Handler())
	defer srv.Close()
	j, err := c.Submit(SpecOf(cfg, variants), 1)
	if err != nil {
		t.Fatal(err)
	}
	l, ok := c.Lease("w")
	if !ok {
		t.Fatal("no lease")
	}
	rec, err := shard.Run(context.Background(), cfg, variants, l.Manifest, "")
	if err != nil {
		t.Fatal(err)
	}

	total := j.grid.Total()
	keys := make([]string, total)
	for idx := range keys {
		wl, cond, v := j.grid.CellAt(idx)
		if keys[idx], err = experiments.CellKey(cfg, wl, cond, v); err != nil {
			t.Fatal(err)
		}
	}
	type keyedResult struct {
		Index       int                   `json:"index"`
		Key         string                `json:"key"`
		Measurement cellcache.Measurement `json:"measurement"`
	}
	results := make([]keyedResult, len(rec.Results))
	for i, cr := range rec.Results {
		results[i] = keyedResult{cr.Index, keys[(cr.Index+1)%total], cr.Measurement}
	}
	body, err := json.Marshal(map[string]interface{}{
		"lease_id": l.ID,
		"record":   map[string]interface{}{"manifest": rec.Manifest, "results": results},
	})
	if err != nil {
		t.Fatal(err)
	}
	if status, e := postRaw(t, srv.URL, "/complete", body); status != http.StatusOK {
		t.Fatalf("complete with bogus keys: status %d (%s)", status, e.Error)
	}
	if cache.count() != total {
		t.Fatalf("cache took %d puts for a %d-cell grid", cache.count(), total)
	}
	for _, cr := range rec.Results {
		got, ok := cache.Get(keys[cr.Index])
		if !ok || !reflect.DeepEqual(got, cr.Measurement) {
			t.Fatalf("cell %d: cache entry under its own key is %+v (present %v), want its measurement", cr.Index, got, ok)
		}
	}

	before := cache.count()
	if status, e := postRaw(t, srv.URL, "/complete", body); status != http.StatusOK {
		t.Fatalf("duplicate complete: status %d (%s)", status, e.Error)
	}
	if puts := cache.count() - before; puts != 0 {
		t.Fatalf("duplicate delivery performed %d cache puts, want 0", puts)
	}
}

// mustLease adapts the client for table-style test loops.
func (cl *Client) mustLease(t *testing.T, worker string) (*Lease, bool) {
	t.Helper()
	l, ok, err := cl.Lease(context.Background(), worker)
	if err != nil {
		t.Fatal(err)
	}
	return l, ok
}

// TestForeignRecordRejectedTyped: a record from a different sweep (drifted
// seed → foreign ConfigHash) is refused with *ForeignRecordError — over
// the wire as HTTP 409, reconstructed by the client — and merges nothing.
func TestForeignRecordRejectedTyped(t *testing.T) {
	cfg := e2eConfig(7)
	variants := testVariants()
	c := New(Options{Clock: newFakeClock()})
	client := startServer(t, c)
	receipt, err := client.Submit(context.Background(), SpecOf(cfg, variants), 2)
	if err != nil {
		t.Fatal(err)
	}
	l, ok := client.mustLease(t, "w")
	if !ok {
		t.Fatal("no lease")
	}

	drifted := cfg
	drifted.Seed = 8
	dp, err := shard.NewPlan(drifted, variants, 2)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := shard.Run(context.Background(), drifted, variants, dp.Shards[0], "")
	if err != nil {
		t.Fatal(err)
	}
	_, err = client.Complete(context.Background(), l.ID, rec)
	var foreign *ForeignRecordError
	if !errors.As(err, &foreign) {
		t.Fatalf("foreign record accepted or mistyped: %v", err)
	}
	if foreign.ConfigHash != dp.ConfigHash {
		t.Fatalf("typed error names hash %.12s, want the record's %.12s", foreign.ConfigHash, dp.ConfigHash)
	}
	st, err := client.Status(context.Background(), receipt.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if st.CellsDone != 0 {
		t.Fatalf("foreign record merged %d cells", st.CellsDone)
	}

	// A malformed record (results not mirroring the manifest) is a 400,
	// not a foreign 409.
	bad := *rec
	bad.Manifest.ConfigHash = receipt.JobID // aimed at the real job
	bad.Results = bad.Results[:len(bad.Results)-1]
	if _, err := client.Complete(context.Background(), l.ID, &bad); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("malformed record: %v, want ErrBadRecord", err)
	}
}

// TestStaleLeaseRecordAccepted: a worker that outlives its lease and
// delivers anyway — the shard long re-leased to someone else — has its
// record accepted (the measurements are deterministic; discarding finished
// work only wastes it), the shard marked done, and the usurper's now-moot
// lease revoked so its next heartbeat tells it to stop.
func TestStaleLeaseRecordAccepted(t *testing.T) {
	cfg := e2eConfig(7)
	variants := testVariants()
	clk := newFakeClock()
	c := New(Options{Clock: clk})
	client := startServer(t, c)
	if _, err := client.Submit(context.Background(), SpecOf(cfg, variants), 2); err != nil {
		t.Fatal(err)
	}

	slow, ok := client.mustLease(t, "slow")
	if !ok {
		t.Fatal("no lease")
	}
	rec, err := shard.Run(context.Background(), cfg, variants, slow.Manifest, "")
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(c.LeaseTTL()) // slow's lease dies mid-"upload"
	second, ok := client.mustLease(t, "second")
	if !ok || second.Manifest.Index != slow.Manifest.Index {
		t.Fatalf("expired shard not re-leased (ok=%v, got shard %d)", ok, second.Manifest.Index)
	}

	dup, err := client.Complete(context.Background(), slow.ID, rec)
	if err != nil {
		t.Fatalf("stale-lease record rejected: %v", err)
	}
	if dup {
		t.Fatal("first completion of the shard flagged duplicate")
	}
	// The usurper's lease was revoked with the shard's completion.
	if _, err := client.Heartbeat(context.Background(), second.ID); !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("usurper heartbeat after revocation: %v, want ErrLeaseExpired", err)
	}
}

// TestSubmitDedupAndCachePrefill: concurrent clients submitting the same
// sweep share one job; a second sweep overlapping the first (a superset
// variant roster over the same device) starts with the shared cells
// already merged from the coordinator cache; and a re-submission after the
// first completes is born done without a single lease.
func TestSubmitDedupAndCachePrefill(t *testing.T) {
	cfg := e2eConfig(7)
	baseline := testVariants()[:1] // Baseline alone: its own reference
	both := testVariants()

	c := New(Options{Clock: newFakeClock(), Cache: cellcache.Memory()})
	client := startServer(t, c)

	r1, err := client.Submit(context.Background(), SpecOf(cfg, baseline), 2)
	if err != nil {
		t.Fatal(err)
	}
	r1b, err := client.Submit(context.Background(), SpecOf(cfg, baseline), 5)
	if err != nil {
		t.Fatal(err)
	}
	if r1b.JobID != r1.JobID || r1b.Shards != r1.Shards {
		t.Fatalf("re-submission made a new job: %+v vs %+v", r1b, r1)
	}

	// Drain job 1 through a worker, then stop it so job 2's prefill can
	// be observed without racing live completions. The worker talks to a
	// server of its own, closed before drain returns: Close waits out
	// every request that server took, so a /lease the cancelled worker
	// sent is served, if at all, while the drained job is the only one
	// with shards, and never holds a shard of the next job on a clock
	// that never expires it.
	drain := func(jobID string) *experiments.Result {
		t.Helper()
		srv := httptest.NewServer(NewServer(c).Handler())
		defer srv.Close()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		done := make(chan error, 1)
		w := &Worker{Client: NewClient(srv.URL), ID: "w", Parallelism: 1, Poll: time.Millisecond}
		go func() { done <- w.Run(ctx) }()
		res, err := client.Result(ctx, jobID)
		if err != nil {
			t.Fatal(err)
		}
		cancel()
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("drain worker exited with %v", err)
		}
		srv.Close()
		return res
	}
	res1 := drain(r1.JobID)

	// Job 2 covers the same Baseline cells plus PnAR2: the Baseline half
	// comes from the coordinator cache, so only the new cells lease out.
	r2, err := client.Submit(context.Background(), SpecOf(cfg, both), 2)
	if err != nil {
		t.Fatal(err)
	}
	st, err := client.Status(context.Background(), r2.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(res1.Cells); st.CellsDone != want {
		t.Fatalf("overlapping job pre-filled %d cells from cache, want %d", st.CellsDone, want)
	}
	res2 := drain(r2.JobID)

	unsharded, err := experiments.RunSweep(context.Background(), cfg, both)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "cache-prefill", unsharded, res2)

	// Third submission of the finished grid: fully covered at the door.
	r3, err := client.Submit(context.Background(), SpecOf(cfg, both), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !r3.Done {
		t.Fatalf("re-submission of a completed sweep not born done: %+v", r3)
	}
}

// TestSubmitResultWithLiveWorker drives the submit-and-wait client path
// (Client.Submit, then Client.Result) against a live RunWorker over
// loopback TCP: the merged result must equal a single-process RunSweep.
func TestSubmitResultWithLiveWorker(t *testing.T) {
	cfg := testConfig(7)
	cfg.Workloads = cfg.Workloads[:1]
	variants := testVariants()
	unsharded, err := experiments.RunSweep(context.Background(), cfg, variants)
	if err != nil {
		t.Fatal(err)
	}

	c := New(Options{})
	srv := httptest.NewServer(NewServer(c).Handler())
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wErr atomic.Value
	go func() {
		if err := RunWorker(ctx, srv.URL, cellcache.Memory(), 1, nil); err != nil && !errors.Is(err, context.Canceled) {
			wErr.Store(err)
		}
	}()

	client := NewClient(srv.URL)
	receipt, err := client.Submit(ctx, SpecOf(cfg, variants), 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := client.Result(ctx, receipt.JobID)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	assertIdentical(t, "submit-result", unsharded, res)
	if e := wErr.Load(); e != nil {
		t.Fatalf("worker error: %v", e)
	}
}

// TestWorkerLostLeaseContinues: a worker whose lease expires under it
// mid-shard must not die. Depending on timing it either learns from a
// rejected heartbeat (abandons the shard, re-leases) or delivers a
// stale-lease record (accepted, deterministic data) — both paths must end
// in a complete, byte-identical sweep with the loop still alive.
func TestWorkerLostLeaseContinues(t *testing.T) {
	cfg := e2eConfig(7)
	variants := testVariants()
	clk := newFakeClock()
	c := New(Options{Clock: clk, LeaseTTL: 10 * time.Second})
	client := startServer(t, c)
	receipt, err := client.Submit(context.Background(), SpecOf(cfg, variants), 2)
	if err != nil {
		t.Fatal(err)
	}

	// Steal the worker's first lease by advancing the clock from OnCell;
	// the tight heartbeat cadence makes the rejection land mid-shard.
	var stole int32
	w := &Worker{
		Client: client, ID: "w", Cache: cellcache.Memory(), Parallelism: 1,
		Poll: time.Millisecond, HeartbeatEvery: time.Millisecond,
		OnCell: func(m shard.Manifest, done, total int) {
			if atomic.CompareAndSwapInt32(&stole, 0, 1) {
				clk.Advance(c.LeaseTTL())
			}
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()

	res, err := client.Result(context.Background(), receipt.JobID)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("worker exited with %v", err)
	}

	unsharded, err := experiments.RunSweep(context.Background(), cfg, variants)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "lost-lease", unsharded, res)
}

// TestHTTPErrors covers the wire-level contract directly: wrong methods,
// unknown jobs, and the error-kind mapping the client relies on.
func TestHTTPErrors(t *testing.T) {
	c := New(Options{Clock: newFakeClock()})
	srv := httptest.NewServer(NewServer(c).Handler())
	defer srv.Close()
	client := NewClient(srv.URL)

	if resp, err := http.Get(srv.URL + "/lease"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET /lease = %d, want 405", resp.StatusCode)
		}
	}
	if _, err := client.Status(context.Background(), "nope"); err == nil {
		t.Fatal("status of unknown job succeeded")
	}
	if _, err := client.Result(context.Background(), "nope"); err == nil {
		t.Fatal("result of unknown job succeeded")
	}
	if _, err := client.Heartbeat(context.Background(), "lease-1"); !errors.Is(err, ErrUnknownLease) {
		t.Fatalf("heartbeat on unknown lease over HTTP: %v, want ErrUnknownLease", err)
	}
	// An empty coordinator has no work: 204, no error.
	if l, ok, err := client.Lease(context.Background(), "w"); err != nil || ok || l != nil {
		t.Fatalf("lease on empty coordinator: %v %v %v", l, ok, err)
	}
	// Bad spec refused at the door.
	if _, err := client.Submit(context.Background(), Spec{}, 2); err == nil {
		t.Fatal("empty spec accepted")
	}
}
