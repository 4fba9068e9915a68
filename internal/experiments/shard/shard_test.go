package shard_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"readretry/internal/experiments"
	"readretry/internal/experiments/cellcache"
	"readretry/internal/experiments/coord"
	"readretry/internal/experiments/shard"
)

// gridShape names one sweep configuration the property tests partition:
// the shapes span 2-D and 3-D condition grids, a single-cell grid, and
// grids smaller than the shard count.
type gridShape struct {
	name     string
	cfg      experiments.Config
	variants []experiments.Variant
}

// baseConfig keeps each simulated cell cheap: a short trace against the
// experiment-scale device.
func baseConfig(seed uint64) experiments.Config {
	cfg := experiments.QuickConfig()
	cfg.Workloads = []string{"stg_0", "YCSB-C"}
	cfg.Conditions = []experiments.Condition{{PEC: 2000, Months: 6}}
	cfg.Requests = 300
	cfg.Seed = seed
	return cfg
}

// twoVariants is the smallest roster with a normalization reference and a
// dependent column.
func twoVariants() []experiments.Variant {
	vs := experiments.Figure14Variants()
	return []experiments.Variant{vs[0], vs[3]} // Baseline, PnAR2
}

// shapes enables retry accounting throughout, so every identity check
// also covers the metrics CSV.
func shapes() []gridShape {
	flat := baseConfig(7)
	flat.Conditions = []experiments.Condition{
		{PEC: 1000, Months: 3}, {PEC: 2000, Months: 6},
	}

	cube := baseConfig(7)
	cube.Workloads = []string{"stg_0"}
	cube.Temps = []float64{25, 85}

	one := baseConfig(7)
	one.Workloads = []string{"stg_0"}

	out := []gridShape{
		{"2D", flat, twoVariants()},
		{"3D-temps", cube, twoVariants()},
		{"single-cell", one, twoVariants()[:1]},
	}
	for i := range out {
		out[i].cfg.Base.RetryMetrics = true
	}
	return out
}

// assertIdentical fails unless merged matches the unsharded run exactly:
// reflect.DeepEqual on the Result and byte-equality through WriteCSV and
// WriteMetricsCSV.
func assertIdentical(t *testing.T, label string, unsharded, merged *experiments.Result) {
	t.Helper()
	if !reflect.DeepEqual(unsharded, merged) {
		t.Fatalf("%s: merged Result differs from unsharded run", label)
	}
	for _, write := range []func(*experiments.Result, *bytes.Buffer) error{
		func(r *experiments.Result, b *bytes.Buffer) error { return r.WriteCSV(b) },
		func(r *experiments.Result, b *bytes.Buffer) error { return r.WriteMetricsCSV(b) },
	} {
		var a, b bytes.Buffer
		if err := write(unsharded, &a); err != nil {
			t.Fatal(err)
		}
		if err := write(merged, &b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("%s: merged CSV differs from unsharded run\nunsharded:\n%s\nmerged:\n%s",
				label, a.String(), b.String())
		}
	}
}

// runShards executes every shard of the plan over cache and returns the
// completion records.
func runShards(t *testing.T, cfg experiments.Config, variants []experiments.Variant, p *shard.Plan, cache cellcache.Cache) []*shard.Record {
	t.Helper()
	cfg.Cache = cache
	recs := make([]*shard.Record, len(p.Shards))
	for i, m := range p.Shards {
		rec, err := shard.Run(context.Background(), cfg, variants, m, "")
		if err != nil {
			t.Fatalf("shard %d/%d: %v", m.Index, m.Count, err)
		}
		recs[i] = rec
	}
	return recs
}

// bornDone submits the sweep to a fresh coordinator over cache and returns
// its result, failing unless the cache alone completed the job at Submit.
func bornDone(t *testing.T, cfg experiments.Config, variants []experiments.Variant, n int, cache cellcache.Cache) *experiments.Result {
	t.Helper()
	j, err := coord.New(coord.Options{Cache: cache}).Submit(coord.SpecOf(cfg, variants), n)
	if err != nil {
		t.Fatal(err)
	}
	res, err := j.Result()
	if err != nil {
		t.Fatalf("coordinator over the shards' cache not born done: %v", err)
	}
	return res
}

// TestPlanPartitionPropertyAndMergeIdentity is the subsystem's core
// property test: over several grid shapes (2-D, 3-D, single-cell) and
// shard counts (1, 2, 3, and more shards than cells), every plan's
// partition must be disjoint, covering, and balanced, and the one merge
// path — the coordinator — must reproduce the unsharded RunSweep
// bit-for-bit twice: from the shards' records delivered to it, and from a
// fresh coordinator over the cache the shards filled.
func TestPlanPartitionPropertyAndMergeIdentity(t *testing.T) {
	for _, sh := range shapes() {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			unsharded, err := experiments.RunSweep(context.Background(), sh.cfg, sh.variants)
			if err != nil {
				t.Fatal(err)
			}
			g, err := experiments.NewGrid(sh.cfg, sh.variants)
			if err != nil {
				t.Fatal(err)
			}
			total := g.Total()

			for _, n := range []int{1, 2, 3, total + 3} {
				p, err := shard.NewPlan(sh.cfg, sh.variants, n)
				if err != nil {
					t.Fatal(err)
				}
				if len(p.Shards) != n {
					t.Fatalf("n=%d: plan has %d shards", n, len(p.Shards))
				}

				// Partition property: disjoint, covering, balanced.
				seen := make([]int, total)
				for _, m := range p.Shards {
					if m.ConfigHash != p.ConfigHash {
						t.Fatalf("n=%d: manifest %d self-description wrong: %+v", n, m.Index, m)
					}
					cells := m.Cells(total)
					for _, idx := range cells {
						if idx < 0 || idx >= total {
							t.Fatalf("n=%d: shard %d holds out-of-range cell %d", n, m.Index, idx)
						}
						seen[idx]++
					}
					if min, max := total/n, (total+n-1)/n; len(cells) < min || len(cells) > max {
						t.Fatalf("n=%d: shard %d has %d cells, want within [%d, %d]", n, m.Index, len(cells), min, max)
					}
				}
				for idx, c := range seen {
					if c != 1 {
						t.Fatalf("n=%d: cell %d covered %d times, want exactly once", n, idx, c)
					}
				}

				// Records delivered to a coordinator.
				cache := cellcache.Memory()
				recs := runShards(t, sh.cfg, sh.variants, p, cache)
				c := coord.New(coord.Options{})
				j, err := c.Submit(coord.SpecOf(sh.cfg, sh.variants), n)
				if err != nil {
					t.Fatal(err)
				}
				for _, rec := range recs {
					if _, err := c.Complete("", rec); err != nil {
						t.Fatalf("n=%d: delivering shard %d: %v", n, rec.Manifest.Index, err)
					}
				}
				merged, err := j.Result()
				if err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
				assertIdentical(t, sh.name+"/records", unsharded, merged)

				// A fresh coordinator over the cache the shards filled.
				assertIdentical(t, sh.name+"/cache", unsharded, bornDone(t, sh.cfg, sh.variants, n, cache))
			}
		})
	}
}

// TestMergedMetricsCSVMatchesUnsharded: the retry digest rides each cell
// through the HTTP wire and the coordinator's cell store, so a coordinator
// fed over HTTP — and one rebuilt from its state dir, with no cache
// passed — renders the metrics CSV byte-identically to a single-process
// sweep.
func TestMergedMetricsCSVMatchesUnsharded(t *testing.T) {
	cfg := baseConfig(7)
	cfg.Base.RetryMetrics = true
	variants := twoVariants()

	unsharded, err := experiments.RunSweep(context.Background(), cfg, variants)
	if err != nil {
		t.Fatal(err)
	}
	p, err := shard.NewPlan(cfg, variants, 2)
	if err != nil {
		t.Fatal(err)
	}
	recs := runShards(t, cfg, variants, p, cellcache.Memory())

	state := t.TempDir()
	c, _, err := coord.Recover(state, coord.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.NewServer(c).Handler())
	defer srv.Close()
	client := coord.NewClient(srv.URL)
	receipt, err := client.Submit(context.Background(), coord.SpecOf(cfg, variants), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if _, err := client.Complete(context.Background(), "", rec); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := client.Result(context.Background(), receipt.JobID)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "http", unsharded, merged)

	replayed, _, err := coord.Recover(state, coord.Options{})
	if err != nil {
		t.Fatal(err)
	}
	j, ok := replayed.Job(receipt.JobID)
	if !ok {
		t.Fatal("journal replay lost the job")
	}
	fromJournal, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "journal", unsharded, fromJournal)
}

// countingCache counts real Put calls — each one is a simulation the
// engine performed (hits never Put) — to prove resumption reuses work.
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

// TestResumeAfterPartialShard models a crashed shard process: the first
// attempt is canceled mid-run, leaving finished cells in the shared cache
// but no record. A coordinator over that cache then holds exactly the
// surviving cells, the re-run performs only the simulations the crash
// lost, and a fresh coordinator over the cache is born done with a result
// bit-identical to the unsharded run.
func TestResumeAfterPartialShard(t *testing.T) {
	cfg := baseConfig(7)
	cfg.Base.RetryMetrics = true
	cfg.Parallelism = 1 // deterministic number of cells completed before cancel
	variants := twoVariants()
	unsharded, err := experiments.RunSweep(context.Background(), cfg, variants)
	if err != nil {
		t.Fatal(err)
	}

	p, err := shard.NewPlan(cfg, variants, 2)
	if err != nil {
		t.Fatal(err)
	}
	shard1Cells := len(p.Shards[1].Cells(len(unsharded.Cells)))
	cache := &countingCache{c: cellcache.Memory()}
	runCfg := cfg
	runCfg.Cache = cache

	// Shard 0 completes normally.
	if _, err := shard.Run(context.Background(), runCfg, variants, p.Shards[0], ""); err != nil {
		t.Fatal(err)
	}
	doneShard0 := cache.count()

	// Shard 1 "crashes" after its first cell: cancel as soon as one lands.
	ctx, cancel := context.WithCancel(context.Background())
	crashCfg := runCfg
	crashCfg.Progress = func(done, total int) {
		if done == 1 {
			cancel()
		}
	}
	if _, err := shard.Run(ctx, crashCfg, variants, p.Shards[1], ""); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted shard returned %v, want context.Canceled", err)
	}
	saved := cache.count() - doneShard0
	if saved == 0 {
		t.Fatal("interrupted shard persisted no cells; resume has nothing to reuse")
	}
	if saved >= shard1Cells {
		t.Fatalf("interrupted shard persisted all %d of its cells; nothing was interrupted", saved)
	}

	// A coordinator over the cache now holds everything but the lost cells.
	c := coord.New(coord.Options{Cache: cache})
	j, err := c.Submit(coord.SpecOf(cfg, variants), 2)
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := c.Status(j.ID); st.Done || st.CellsDone != doneShard0+saved {
		t.Fatalf("coordinator over the crashed cache: %+v, want %d cells done, not finished", st, doneShard0+saved)
	}

	// Resume: re-run shard 1 to completion over the same cache. Only the
	// lost cells may simulate.
	before := cache.count()
	if _, err := shard.Run(context.Background(), runCfg, variants, p.Shards[1], ""); err != nil {
		t.Fatal(err)
	}
	if resimulated := cache.count() - before; resimulated != shard1Cells-saved {
		t.Fatalf("resume simulated %d cells, want only the %d lost ones",
			resimulated, shard1Cells-saved)
	}

	assertIdentical(t, "resume", unsharded, bornDone(t, cfg, variants, 2, cache))
}

// TestRunRejectsForeignManifest: a manifest planned for a different sweep
// (any config drift — here the seed) must be refused before any simulation.
func TestRunRejectsForeignManifest(t *testing.T) {
	cfg := baseConfig(7)
	variants := twoVariants()
	p, err := shard.NewPlan(cfg, variants, 2)
	if err != nil {
		t.Fatal(err)
	}
	drifted := cfg
	drifted.Seed = 8
	if _, err := shard.Run(context.Background(), drifted, variants, p.Shards[0], ""); err == nil {
		t.Fatal("shard.Run accepted a manifest planned for a different seed")
	}
}

// TestRunRefusesDir: Run's dir argument is vestigial; a non-empty one is
// an error, not a silently ignored request for files.
func TestRunRefusesDir(t *testing.T) {
	cfg := baseConfig(7)
	variants := twoVariants()
	p, err := shard.NewPlan(cfg, variants, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shard.Run(context.Background(), cfg, variants, p.Shards[0], t.TempDir()); err == nil {
		t.Fatal("shard.Run accepted a shard directory")
	}
}

// TestManifestRoundTrip: manifests survive the JSON round-trip they make
// inside every coordinator lease, exactly.
func TestManifestRoundTrip(t *testing.T) {
	p, err := shard.NewPlan(baseConfig(7), twoVariants(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range p.Shards {
		data, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		var got shard.Manifest
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("manifest %d round-trip mismatch:\ngot  %+v\nwant %+v", want.Index, got, want)
		}
	}
}

// TestNewPlanRejectsBadInputs covers the planner's argument validation.
func TestNewPlanRejectsBadInputs(t *testing.T) {
	cfg := baseConfig(7)
	if _, err := shard.NewPlan(cfg, twoVariants(), 0); err == nil {
		t.Fatal("NewPlan accepted 0 shards")
	}
	if _, err := shard.NewPlan(cfg, nil, 2); err == nil {
		t.Fatal("NewPlan accepted an empty variant roster")
	}
	bad := cfg
	bad.Conditions = []experiments.Condition{{PEC: -1}}
	if _, err := shard.NewPlan(bad, twoVariants(), 2); err == nil {
		t.Fatal("NewPlan accepted an invalid condition grid")
	}
}
