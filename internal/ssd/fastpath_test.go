package ssd

import (
	"reflect"
	"sync"
	"testing"

	"readretry/internal/core"
	"readretry/internal/rpt"
	"readretry/internal/trace"
)

func fastpathTrace(t *testing.T, cfg Config, nreq int) []trace.Record {
	t.Helper()
	return workloadTrace(t, cfg, "YCSB-A", nreq, 1500)
}

// TestFastPathMatchesSlowPath runs every scheme (plus PSO and the §8
// extensions) through the fast and reference read paths on one device and
// requires bit-identical statistics. The repository-level differential test
// extends this to the full Figure 14 grid; this one is the fast feedback
// loop. Two inputs beyond the YCSB-A trace reach the continuations the
// grid's read-dominant cells rarely take: a write-heavy trace (GC moves,
// erases, suspensions) and a cold, aged PnAR² device (AR² fallbacks). The
// variant set must exercise all four, so the coverage cannot silently
// vanish.
func TestFastPathMatchesSlowPath(t *testing.T) {
	base := tinyConfig()
	base.PEC, base.RetentionMonths = 2000, 6
	recs := fastpathTrace(t, base, 600)
	writeHeavy := workloadTrace(t, base, "stg_0", 1500, 1500)
	variants := []struct {
		recs  []trace.Record
		apply func(c *Config)
	}{
		{recs, func(c *Config) {}},
		{recs, func(c *Config) { c.Scheme = core.PR2 }},
		{recs, func(c *Config) { c.Scheme = core.AR2 }},
		{recs, func(c *Config) { c.Scheme = core.PnAR2 }},
		{recs, func(c *Config) { c.Scheme = core.NoRR }},
		{recs, func(c *Config) { c.Scheme = core.PnAR2; c.UsePSO = true }},
		{recs, func(c *Config) { c.Scheme = core.AR2; c.ReducedRegularReads = true }},
		{recs, func(c *Config) { c.UseDriftPredictor = true }},
		{writeHeavy, func(c *Config) {}},
		{recs, func(c *Config) {
			c.Scheme = core.PnAR2
			c.PEC, c.RetentionMonths, c.TempC = 2500, 18, 25
		}},
	}
	var seen Stats
	for i, v := range variants {
		fastCfg := base
		v.apply(&fastCfg)
		slowCfg := fastCfg
		slowCfg.DisableReadFastPath = true

		run := func(cfg Config) *Stats {
			dev, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			st, err := dev.Run(v.recs)
			if err != nil {
				t.Fatal(err)
			}
			return st
		}
		fast, slow := run(fastCfg), run(slowCfg)
		if !reflect.DeepEqual(fast, slow) {
			t.Fatalf("variant %d (%+v): fast path diverges from reference\nfast: %+v\nslow: %+v",
				i, fastCfg.Scheme, fast, slow)
		}
		seen.GCJobs += fast.GCJobs
		seen.Erases += fast.Erases
		seen.Suspensions += fast.Suspensions
		seen.AR2Fallbacks += fast.AR2Fallbacks
	}
	if seen.GCJobs == 0 || seen.Erases == 0 || seen.Suspensions == 0 || seen.AR2Fallbacks == 0 {
		t.Errorf("variants never reached every continuation: %d GC jobs, %d erases, %d suspensions, %d AR² fallbacks",
			seen.GCJobs, seen.Erases, seen.Suspensions, seen.AR2Fallbacks)
	}
}

// TestRPTProfileMemoized pins the satellite requirement that a sweep
// profiles each distinct (VthParams, RPT config, seed) table once: two
// devices built from the same configuration must share the identical table
// pointer, and changing any key component must produce a different table.
func TestRPTProfileMemoized(t *testing.T) {
	cfg := tinyConfig()
	cfg.Scheme = core.AR2
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.RPT() != b.RPT() {
		t.Fatal("identical configs should share one profiled RPT")
	}
	seeded := cfg
	seeded.Seed = cfg.Seed + 1
	c, err := New(seeded)
	if err != nil {
		t.Fatal(err)
	}
	if c.RPT() == a.RPT() {
		t.Fatal("different seed must not share the RPT")
	}
	margin := cfg
	margin.RPT.SafetyMarginBits = 7
	d, err := New(margin)
	if err != nil {
		t.Fatal(err)
	}
	if d.RPT() == a.RPT() {
		t.Fatal("different RPT config must not share the RPT")
	}
}

// TestRPTProfileConcurrentNew builds devices concurrently for two adaptive
// configs that no other test profiles: every device of one config must get
// that config's single *rpt.Table, and the two configs distinct tables.
// Run under -race it also checks the memo's first, contended build.
func TestRPTProfileConcurrentNew(t *testing.T) {
	base := tinyConfig()
	base.Scheme = core.AR2
	base.Seed = 0x5eedc0c0
	const perConfig = 4
	var tables [2][perConfig]*rpt.Table
	var errs [2][perConfig]error
	var wg sync.WaitGroup
	for k := range tables {
		cfg := base
		cfg.Seed += uint64(k)
		for i := range tables[k] {
			wg.Add(1)
			go func(k, i int) {
				defer wg.Done()
				dev, err := New(cfg)
				if err != nil {
					errs[k][i] = err
					return
				}
				tables[k][i] = dev.RPT()
			}(k, i)
		}
	}
	wg.Wait()
	for k := range tables {
		for i := range tables[k] {
			if errs[k][i] != nil {
				t.Fatal(errs[k][i])
			}
			if tables[k][i] == nil || tables[k][i] != tables[k][0] {
				t.Fatalf("config %d: device %d got a different RPT than device 0", k, i)
			}
		}
	}
	if tables[0][0] == tables[1][0] {
		t.Fatal("different seeds share one RPT")
	}
}

// TestReadPercentileAfterAppend is the regression test for the Stats
// staleness bug: a ReadPercentile call between appends used to leave the
// sorted flag set, so later percentiles were computed over a half-sorted
// slice.
func TestReadPercentileAfterAppend(t *testing.T) {
	var st Stats
	st.addReadSample(10)
	st.addReadSample(1)
	if got := st.ReadPercentile(100); got != 10 {
		t.Fatalf("p100 = %v, want 10", got)
	}
	// Mid-run inspection done; more samples arrive, including a new max and
	// a new min that land after the sorted prefix.
	st.addReadSample(100)
	st.addReadSample(0.5)
	if got := st.ReadPercentile(100); got != 100 {
		t.Fatalf("p100 after append = %v, want 100 (stale sort)", got)
	}
	if got := st.ReadPercentile(0); got != 0.5 {
		t.Fatalf("p0 after append = %v, want 0.5 (stale sort)", got)
	}
}

// TestSharedPlansNeverMutated runs several devices concurrently over the
// same configuration so they execute the same memoized core.Plan values at
// once. Under -race this proves the executor keeps all mutable state in its
// own scratch; the equality check proves the shared plans stayed pristine.
func TestSharedPlansNeverMutated(t *testing.T) {
	cfg := tinyConfig()
	cfg.Scheme = core.PnAR2
	cfg.PEC, cfg.RetentionMonths = 2000, 12
	recs := fastpathTrace(t, cfg, 400)

	const devices = 4
	stats := make([]*Stats, devices)
	errs := make([]error, devices)
	var wg sync.WaitGroup
	for i := 0; i < devices; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dev, err := New(cfg)
			if err != nil {
				errs[i] = err
				return
			}
			stats[i], errs[i] = dev.Run(recs)
		}(i)
	}
	wg.Wait()
	for i := 0; i < devices; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(stats[0], stats[i]) {
			t.Fatalf("device %d diverged from device 0 while sharing plans", i)
		}
	}
	// A plan fetched after the concurrent runs must still equal a freshly
	// built one — the executors never wrote into the shared value.
	tm := core.StepTimings{SenseDefault: 90000, SenseReduced: 68000, DMA: 16000, ECC: 20000, Set: 1000, Reset: 5000}
	for nrr := 0; nrr <= 10; nrr++ {
		cached := core.CachedPlan(core.PnAR2, nrr, tm, core.Options{})
		direct := core.BuildPlan(core.PnAR2, nrr, tm, core.Options{})
		if !reflect.DeepEqual(*cached, direct) {
			t.Fatalf("nrr=%d: shared plan no longer matches BuildPlan output", nrr)
		}
	}
}
