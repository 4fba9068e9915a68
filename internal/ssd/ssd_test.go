package ssd

import (
	"math"
	"strings"
	"testing"

	"readretry/internal/core"
	"readretry/internal/sim"
	"readretry/internal/trace"
	"readretry/internal/workload"
)

// tinyConfig returns a small but structurally complete device: full
// parallelism (4×4×2), few blocks, fast tests.
func tinyConfig() Config {
	cfg := ExperimentConfig()
	cfg.Geometry.BlocksPerPlane = 24
	cfg.Geometry.PagesPerBlock = 48
	cfg.GCThresholdBlocks = 3
	cfg.PreconditionPages = cfg.TotalPages() * 7 / 10
	return cfg
}

// workloadTrace generates nreq requests of the named workload at iops,
// with the footprint sized to ~60 % of the device.
func workloadTrace(t *testing.T, cfg Config, name string, nreq int, iops float64) []trace.Record {
	t.Helper()
	spec, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	spec.FootprintPages = cfg.TotalPages() * 6 / 10
	spec.AvgIOPS = iops
	return workload.NewGenerator(spec, 7).Generate(nreq)
}

func runWorkload(t *testing.T, cfg Config, name string, nreq int, iops float64) *Stats {
	t.Helper()
	recs := workloadTrace(t, cfg, name, nreq, iops)
	dev, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := dev.Run(recs)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := ExperimentConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.Channels = 0
	if bad.Validate() == nil {
		t.Error("zero channels should fail")
	}
	bad = DefaultConfig()
	bad.Geometry.Dies = 2
	if bad.Validate() == nil {
		t.Error("multi-die per-chip geometry should fail")
	}
	bad = DefaultConfig()
	bad.GCThresholdBlocks = 0
	if bad.Validate() == nil {
		t.Error("zero GC threshold should fail")
	}
	for name, mutate := range map[string]func(*Config){
		"temperature below range": func(c *Config) { c.TempC = -60 },
		"temperature above range": func(c *Config) { c.TempC = 200 },
		"NaN temperature":         func(c *Config) { c.TempC = math.NaN() },
		"negative PEC":            func(c *Config) { c.PEC = -1 },
		"negative retention":      func(c *Config) { c.RetentionMonths = -5 },
		"NaN retention":           func(c *Config) { c.RetentionMonths = math.NaN() },
		"infinite retention":      func(c *Config) { c.RetentionMonths = math.Inf(1) },
		"negative tECC":           func(c *Config) { c.Timing.TECC = -1 },
		// Each of these picks a read's ladder start; a read honours one.
		"PSO and predictor":     func(c *Config) { c.UsePSO, c.UseDriftPredictor = true, true },
		"PSO and history":       func(c *Config) { c.UsePSO, c.UseRetryHistory = true, true },
		"predictor and history": func(c *Config) { c.UseDriftPredictor, c.UseRetryHistory = true, true },
	} {
		bad = DefaultConfig()
		mutate(&bad)
		if bad.Validate() == nil {
			t.Errorf("%s should fail validation", name)
		}
	}
}

// TestRunRejectsMalformedRequests covers request streams a trace file can
// carry: each is rejected before the run, naming the offending record.
func TestRunRejectsMalformedRequests(t *testing.T) {
	cfg := tinyConfig()
	logical := cfg.TotalPages() * workload.PageSize
	for name, bad := range map[string]trace.Record{
		"negative arrival":      {Arrival: -100 * sim.Millisecond, Size: 4096},
		"negative offset":       {Offset: -2 * workload.PageSize, Size: 4096},
		"small negative offset": {Offset: -100, Size: 4096},
		"read past logical end": {Offset: logical, Size: 4096},
		"write past logical end": {Offset: logical - workload.PageSize, Size: 2 * workload.PageSize,
			Write: true},
	} {
		dev, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		recs := []trace.Record{{Arrival: sim.Millisecond, Size: 4096}, bad}
		_, err = dev.Run(recs)
		if err == nil || !strings.Contains(err.Error(), "request 1 ") {
			t.Errorf("%s: Run error %v, want one naming request 1", name, err)
		}
	}
}

func TestPaperScaleConfig(t *testing.T) {
	cfg := DefaultConfig()
	// §7.1: 512 GiB usable: 4×4×2×1888×576×16 KiB ≈ 531 GiB raw.
	rawGiB := float64(cfg.TotalPages()) * 16 / (1 << 16)
	_ = rawGiB
	raw := cfg.TotalPages() * 16 * 1024
	if raw < 512<<30 {
		t.Errorf("raw capacity %d below the 512 GiB the paper simulates", raw)
	}
	if cfg.Dies() != 16 {
		t.Errorf("dies = %d, want 16", cfg.Dies())
	}
}

func TestAllRequestsComplete(t *testing.T) {
	st := runWorkload(t, tinyConfig(), "YCSB-C", 2000, 3000)
	if st.Completed != st.Submitted || st.Completed != 2000 {
		t.Errorf("completed %d of %d submitted", st.Completed, st.Submitted)
	}
	if st.MeanRead() <= 0 {
		t.Error("read response time should be positive")
	}
}

func TestFreshDeviceNeedsNoRetries(t *testing.T) {
	cfg := tinyConfig()
	cfg.PEC, cfg.RetentionMonths = 0, 0
	st := runWorkload(t, cfg, "YCSB-C", 1500, 2000)
	if st.MeanRetrySteps() != 0 {
		t.Errorf("fresh device mean N_RR = %.2f, want 0", st.MeanRetrySteps())
	}
	// An uncontended fresh read costs tR + tDMA + tECC ≈ 126 µs; queueing
	// and CSB pages push the mean above that, but it must stay in range.
	if st.MeanRead() < 100 || st.MeanRead() > 400 {
		t.Errorf("fresh mean read = %.0f µs, expected near the 126 µs service time", st.MeanRead())
	}
}

func TestAgedDeviceRetriesHeavily(t *testing.T) {
	cfg := tinyConfig()
	cfg.PEC, cfg.RetentionMonths = 2000, 12
	st := runWorkload(t, cfg, "YCSB-C", 800, 300)
	if st.MeanRetrySteps() < 10 {
		t.Errorf("aged mean N_RR = %.2f, want heavy retrying", st.MeanRetrySteps())
	}
	if st.RetriedReads == 0 {
		t.Error("no retried reads on an aged device")
	}
}

func TestSchemeOrderingUnderLoad(t *testing.T) {
	// The paper's headline: Baseline > PR2 > PnAR2 > NoRR in response
	// time, with AR2 between Baseline and PnAR2 (Figure 14's ordering).
	cfg := tinyConfig()
	cfg.PEC, cfg.RetentionMonths = 2000, 6
	res := map[core.Scheme]float64{}
	for _, s := range []core.Scheme{core.Baseline, core.PR2, core.AR2, core.PnAR2, core.NoRR} {
		c := cfg
		c.Scheme = s
		st := runWorkload(t, c, "YCSB-C", 1200, 400)
		res[s] = st.MeanRead()
	}
	if !(res[core.NoRR] < res[core.PnAR2] && res[core.PnAR2] < res[core.PR2] &&
		res[core.PR2] < res[core.Baseline]) {
		t.Errorf("scheme ordering violated: %v", res)
	}
	if !(res[core.AR2] < res[core.Baseline] && res[core.AR2] > res[core.PnAR2]) {
		t.Errorf("AR2 should sit between Baseline and PnAR2: %v", res)
	}
}

func TestPnAR2ImprovementMagnitude(t *testing.T) {
	// At (2K, 6mo) the paper reports PnAR2 cutting mean response ~35 %
	// vs Baseline on read-dominant workloads; accept a generous band.
	cfg := tinyConfig()
	cfg.PEC, cfg.RetentionMonths = 2000, 6
	base := runWorkload(t, cfg, "mds_1", 1500, 400)
	cfg.Scheme = core.PnAR2
	both := runWorkload(t, cfg, "mds_1", 1500, 400)
	gain := 1 - both.MeanAll()/base.MeanAll()
	if gain < 0.15 || gain > 0.60 {
		t.Errorf("PnAR2 gain at (2K, 6mo) = %.1f%%, paper reports ≈35%%", gain*100)
	}
}

func TestPSOReducesRetrySteps(t *testing.T) {
	cfg := tinyConfig()
	cfg.PEC, cfg.RetentionMonths = 2000, 12
	plain := runWorkload(t, cfg, "YCSB-C", 1000, 300)
	cfg.UsePSO = true
	pso := runWorkload(t, cfg, "YCSB-C", 1000, 300)
	if pso.MeanRetrySteps() >= plain.MeanRetrySteps()*0.6 {
		t.Errorf("PSO mean N_RR = %.1f vs %.1f plain; paper reports ≈70%% fewer steps",
			pso.MeanRetrySteps(), plain.MeanRetrySteps())
	}
	// But never below the 3-step floor for retried reads.
	if pso.MeanRetrySteps() < 2 {
		t.Errorf("PSO mean N_RR = %.1f implausibly low", pso.MeanRetrySteps())
	}
	if pso.PSOHits == 0 {
		t.Error("PSO cache saw no hits")
	}
}

func TestPSOPlusPnAR2Compounds(t *testing.T) {
	// §7.3: PR²+AR² on top of PSO cuts response time further.
	cfg := tinyConfig()
	cfg.PEC, cfg.RetentionMonths = 2000, 12
	cfg.UsePSO = true
	psoOnly := runWorkload(t, cfg, "YCSB-B", 1200, 400)
	cfg.Scheme = core.PnAR2
	combined := runWorkload(t, cfg, "YCSB-B", 1200, 400)
	gain := 1 - combined.MeanAll()/psoOnly.MeanAll()
	if gain < 0.05 || gain > 0.45 {
		t.Errorf("PSO+PnAR2 over PSO = %.1f%%, paper reports up to 31.5%% (17%% avg)", gain*100)
	}
}

func TestWriteHeavyWorkloadTriggersGC(t *testing.T) {
	cfg := tinyConfig()
	st := runWorkload(t, cfg, "stg_0", 4000, 3000)
	if st.GCJobs == 0 {
		t.Error("write-heavy workload never triggered GC")
	}
	if st.Erases == 0 {
		t.Error("GC ran but nothing was erased")
	}
	if st.WriteAmplification() <= 1 {
		t.Errorf("write amplification = %.2f, want > 1 with GC active", st.WriteAmplification())
	}
}

func TestSuspensionFiresUnderMixedLoad(t *testing.T) {
	cfg := tinyConfig()
	cfg.PEC, cfg.RetentionMonths = 1000, 3
	st := runWorkload(t, cfg, "hm_0", 3000, 2500)
	if st.Suspensions == 0 {
		t.Error("mixed read/write load should suspend programs")
	}
}

func TestDeterministicRuns(t *testing.T) {
	cfg := tinyConfig()
	a := runWorkload(t, cfg, "YCSB-A", 1000, 1000)
	b := runWorkload(t, cfg, "YCSB-A", 1000, 1000)
	if a.MeanAll() != b.MeanAll() || a.GCJobs != b.GCJobs || a.Suspensions != b.Suspensions {
		t.Error("identical configs must produce identical runs")
	}
}

func TestColdReadsDominateRetryCost(t *testing.T) {
	// Rewritten (hot) pages are young again: a workload that rewrites
	// everything sees fewer retries than one that only reads cold data.
	cfg := tinyConfig()
	cfg.PEC, cfg.RetentionMonths = 1000, 6

	spec, _ := workload.ByName("YCSB-C") // ~all reads
	spec.FootprintPages = cfg.TotalPages() * 6 / 10
	spec.AvgIOPS = 500
	spec.ColdRatio = 0.95
	coldRecs := workload.NewGenerator(spec, 3).Generate(1500)
	dev, _ := New(cfg)
	coldStats, err := dev.Run(coldRecs)
	if err != nil {
		t.Fatal(err)
	}

	spec.ColdRatio = 0.05
	spec.ReadRatio = 0.5 // lots of rewrites keep data young
	hotRecs := workload.NewGenerator(spec, 3).Generate(1500)
	dev2, _ := New(cfg)
	hotStats, err := dev2.Run(hotRecs)
	if err != nil {
		t.Fatal(err)
	}
	if coldStats.MeanRetrySteps() <= hotStats.MeanRetrySteps() {
		t.Errorf("cold workload N_RR %.2f should exceed hot workload N_RR %.2f",
			coldStats.MeanRetrySteps(), hotStats.MeanRetrySteps())
	}
}

func TestAR2NoFallbacksWithDefaultMargin(t *testing.T) {
	cfg := tinyConfig()
	cfg.Scheme = core.AR2
	cfg.PEC, cfg.RetentionMonths = 2000, 12
	st := runWorkload(t, cfg, "YCSB-C", 1000, 300)
	if st.AR2Fallbacks != 0 {
		t.Errorf("%d AR2 fallbacks with the 14-bit margin; paper: never observed", st.AR2Fallbacks)
	}
}

func TestRPTOnlyBuiltForAdaptiveSchemes(t *testing.T) {
	cfg := tinyConfig()
	dev, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dev.RPT() != nil {
		t.Error("baseline scheme should not profile an RPT")
	}
	cfg.Scheme = core.PnAR2
	dev, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dev.RPT() == nil {
		t.Error("adaptive scheme needs an RPT")
	}
}

func TestMultiPageRequests(t *testing.T) {
	cfg := tinyConfig()
	recs := []trace.Record{
		{Arrival: 0, Offset: 0, Size: 4 * workload.PageSize, Write: false},
		{Arrival: sim.Millisecond, Offset: 64 * workload.PageSize, Size: 2 * workload.PageSize, Write: true},
	}
	dev, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := dev.Run(recs)
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != 2 {
		t.Errorf("completed %d requests, want 2", st.Completed)
	}
	if st.PageReads != 4 || st.PageWrites != 2 {
		t.Errorf("page ops %d/%d, want 4/2", st.PageReads, st.PageWrites)
	}
}

func TestStatsString(t *testing.T) {
	st := runWorkload(t, tinyConfig(), "YCSB-C", 200, 1000)
	if s := st.String(); len(s) == 0 {
		t.Error("empty stats string")
	}
	if p := st.ReadPercentile(99); p < st.ReadPercentile(50) {
		t.Error("p99 below median")
	}
}
