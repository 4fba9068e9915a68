// Benchmarks: one per reproduced table and figure (regenerating its data at
// reduced scale and reporting the headline quantity as a custom metric),
// plus the ablation benches DESIGN.md §6 calls out and substrate
// micro-benches. Run with:
//
//	go test -bench=. -benchmem
package readretry_test

import (
	"context"
	"io"
	"runtime"
	"testing"

	"readretry/internal/charz"
	"readretry/internal/chip"
	"readretry/internal/core"
	"readretry/internal/experiments"
	"readretry/internal/experiments/cellcache"
	"readretry/internal/experiments/coord"
	"readretry/internal/experiments/shard"
	"readretry/internal/nand"
	"readretry/internal/rpt"
	"readretry/internal/ssd"
	"readretry/internal/trace"
	"readretry/internal/vth"
	"readretry/internal/workload"
)

// --- Table 1 ---------------------------------------------------------------

func BenchmarkTable1Timing(b *testing.B) {
	tm := nand.DefaultTiming()
	var sink float64
	for i := 0; i < b.N; i++ {
		for _, pt := range []nand.PageType{nand.LSB, nand.CSB, nand.MSB} {
			sink += float64(tm.TR(pt, nand.Reduction{Pre: 0.4}))
		}
	}
	b.ReportMetric(tm.AvgTR().Microseconds(), "avg_tR_us")
	_ = sink
}

// --- Table 2 ---------------------------------------------------------------

func BenchmarkTable2Workloads(b *testing.B) {
	spec, err := workload.ByName("mds_1")
	if err != nil {
		b.Fatal(err)
	}
	spec.FootprintPages = 1 << 16
	var recs []trace.Record
	for i := 0; i < b.N; i++ {
		recs = workload.NewGenerator(spec, 1).Generate(20000)
	}
	b.ReportMetric(workload.MeasureReadRatio(recs), "read_ratio")
	b.ReportMetric(workload.MeasureColdRatio(recs), "cold_ratio")
}

// --- Characterization figures ----------------------------------------------

func benchLab(b *testing.B, samples int) *charz.Lab {
	b.Helper()
	return charz.DefaultLab(samples, 1)
}

func BenchmarkFig4bRBERLadder(b *testing.B) {
	lab := benchLab(b, 1500)
	var final int
	for i := 0; i < b.N; i++ {
		s, err := lab.RBERLadder(2000, 12, 18)
		if err != nil {
			b.Fatal(err)
		}
		final = s.ErrorsPerStep[s.StepsNeeded]
	}
	b.ReportMetric(float64(final), "final_step_errors")
}

func BenchmarkFig5RetrySteps(b *testing.B) {
	lab := benchLab(b, 1500)
	var mean float64
	for i := 0; i < b.N; i++ {
		mean = lab.RetrySteps(2000, 12, 30).Mean
	}
	b.ReportMetric(mean, "mean_retry_steps")
}

func BenchmarkFig7ECCMargin(b *testing.B) {
	lab := benchLab(b, 1500)
	var margin int
	for i := 0; i < b.N; i++ {
		pts := lab.FinalStepMargin([]int{2000}, []float64{12}, []float64{30})
		margin = pts[0].Margin
	}
	b.ReportMetric(float64(margin), "margin_bits")
}

func BenchmarkFig8TimingSweep(b *testing.B) {
	lab := benchLab(b, 1500)
	reds := []nand.Reduction{
		{Pre: nand.LevelFraction(6)}, {Pre: nand.LevelFraction(7)}, {Pre: nand.LevelFraction(8)},
	}
	var delta int
	for i := 0; i < b.N; i++ {
		pts := lab.TimingSweep(2000, 12, 85, reds)
		delta = pts[1].DeltaErr
	}
	b.ReportMetric(float64(delta), "dM_at_47pct")
}

func BenchmarkFig9Combined(b *testing.B) {
	lab := benchLab(b, 1500)
	red := []nand.Reduction{{Pre: nand.LevelFraction(8), Disch: nand.LevelFraction(3)}}
	var m int
	for i := 0; i < b.N; i++ {
		m = lab.TimingSweep(1000, 0, 85, red)[0].MErr
	}
	b.ReportMetric(float64(m), "combined_MERR")
}

func BenchmarkFig10Temperature(b *testing.B) {
	lab := benchLab(b, 1500)
	var delta int
	for i := 0; i < b.N; i++ {
		pts := lab.TemperatureSweep(2000, 12, []float64{30}, []int{6})
		delta = pts[0].DeltaErr
	}
	b.ReportMetric(float64(delta), "cold_extra_errors")
}

func BenchmarkFig11RPT(b *testing.B) {
	model := vth.NewModel(vth.DefaultParams(), 1)
	var table *rpt.Table
	for i := 0; i < b.N; i++ {
		var err error
		table, err = rpt.Profile(model, rpt.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(nand.LevelFraction(table.MinLevel())*100, "min_reduction_pct")
	b.ReportMetric(nand.LevelFraction(table.MaxLevel())*100, "max_reduction_pct")
}

// --- Mechanism figures -------------------------------------------------------

func BenchmarkFig12PR2Latency(b *testing.B) {
	tm := experiments.PaperTimings()
	var saved float64
	for i := 0; i < b.N; i++ {
		base := core.BuildPlan(core.Baseline, 10, tm, core.Options{}).Latency()
		pr := core.BuildPlan(core.PR2, 10, tm, core.Options{}).Latency()
		saved = (base - pr).Microseconds()
	}
	b.ReportMetric(saved, "saved_us_at_N10")
}

func BenchmarkFig13AR2Latency(b *testing.B) {
	tm := experiments.PaperTimings()
	var both float64
	for i := 0; i < b.N; i++ {
		both = core.BuildPlan(core.PnAR2, 10, tm, core.Options{}).Latency().Microseconds()
	}
	b.ReportMetric(both, "pnar2_us_at_N10")
}

// --- System-level figures -----------------------------------------------------

// benchSSDConfig returns a small device for per-iteration simulation.
func benchSSDConfig() ssd.Config {
	cfg := ssd.ExperimentConfig()
	cfg.Geometry.BlocksPerPlane = 24
	cfg.Geometry.PagesPerBlock = 48
	cfg.GCThresholdBlocks = 3
	cfg.PreconditionPages = cfg.TotalPages() * 7 / 10
	return cfg
}

func benchTrace(b *testing.B, cfg ssd.Config, name string, n int) []trace.Record {
	b.Helper()
	spec, err := workload.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	spec.FootprintPages = cfg.TotalPages() * 6 / 10
	spec.AvgIOPS = 1200
	return workload.NewGenerator(spec, 7).Generate(n)
}

func runScheme(b *testing.B, cfg ssd.Config, recs []trace.Record, s core.Scheme, pso bool) *ssd.Stats {
	b.Helper()
	c := cfg
	c.Scheme = s
	c.UsePSO = pso
	dev, err := ssd.New(c)
	if err != nil {
		b.Fatal(err)
	}
	st, err := dev.Run(recs)
	if err != nil {
		b.Fatal(err)
	}
	return st
}

func BenchmarkFig14ResponseTime(b *testing.B) {
	cfg := benchSSDConfig()
	cfg.PEC, cfg.RetentionMonths = 2000, 6
	recs := benchTrace(b, cfg, "YCSB-C", 1000)
	var norm float64
	for i := 0; i < b.N; i++ {
		base := runScheme(b, cfg, recs, core.Baseline, false)
		both := runScheme(b, cfg, recs, core.PnAR2, false)
		norm = both.MeanAll() / base.MeanAll()
	}
	b.ReportMetric(norm, "pnar2_normalized_rt")
}

func BenchmarkFig15PSO(b *testing.B) {
	cfg := benchSSDConfig()
	cfg.PEC, cfg.RetentionMonths = 2000, 12
	recs := benchTrace(b, cfg, "YCSB-C", 1000)
	var gain float64
	for i := 0; i < b.N; i++ {
		pso := runScheme(b, cfg, recs, core.Baseline, true)
		combo := runScheme(b, cfg, recs, core.PnAR2, true)
		gain = 1 - combo.MeanAll()/pso.MeanAll()
	}
	b.ReportMetric(gain*100, "combo_gain_pct")
}

// --- Sweep engine ---------------------------------------------------------------

// benchSweepConfig is a trimmed Figure 14 grid: 3 workloads × 2 conditions
// × 5 variants = 30 independent simulations per iteration, enough fan-out
// for the pool to matter while keeping an iteration in seconds.
func benchSweepConfig() experiments.Config {
	cfg := experiments.QuickConfig()
	cfg.Requests = 400
	return cfg
}

func BenchmarkSweepSerial(b *testing.B) {
	cfg := benchSweepConfig()
	cfg.Parallelism = 1
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunSweep(context.Background(), cfg, experiments.Figure14Variants()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(1, "workers")
}

// BenchmarkSweepParallel is BenchmarkSweepSerial on the full worker pool;
// compare ns/op between the two. On GOMAXPROCS≥4 the grid's 30 independent
// cells give the pool near-linear headroom (the serial fraction is one
// trace generation per workload).
func BenchmarkSweepParallel(b *testing.B) {
	cfg := benchSweepConfig()
	cfg.Parallelism = 0 // GOMAXPROCS
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunSweep(context.Background(), cfg, experiments.Figure14Variants()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
}

// BenchmarkSweepColdCache measures a cache-enabled sweep where every cell
// misses (a fresh cache per iteration): the baseline cost plus key
// derivation and Put overhead. Compare against BenchmarkSweepParallel for
// the cache's cold-path tax and against BenchmarkSweepWarmCache for its
// payoff.
func BenchmarkSweepColdCache(b *testing.B) {
	cfg := benchSweepConfig()
	cfg.Parallelism = 0
	for i := 0; i < b.N; i++ {
		cfg.Cache = cellcache.Memory()
		if _, err := experiments.RunSweep(context.Background(), cfg, experiments.Figure14Variants()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepWarmCache measures a fully cached sweep: every cell is a
// hit, so no simulation or trace generation runs — the per-iteration cost
// is pure engine plumbing (hashing, lookups, resequencing).
func BenchmarkSweepWarmCache(b *testing.B) {
	cfg := benchSweepConfig()
	cfg.Parallelism = 0
	cfg.Cache = cellcache.Memory()
	if _, err := experiments.RunSweep(context.Background(), cfg, experiments.Figure14Variants()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunSweep(context.Background(), cfg, experiments.Figure14Variants()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepBufferedCSV materializes the Result and then encodes it,
// the pre-streaming shape: the whole grid is held in memory before the
// first CSV byte exists.
func BenchmarkSweepBufferedCSV(b *testing.B) {
	cfg := benchSweepConfig()
	cfg.Parallelism = 0
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunSweep(context.Background(), cfg, experiments.Figure14Variants())
		if err != nil {
			b.Fatal(err)
		}
		if err := res.WriteCSV(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepStreamingCSV emits rows as stripes complete via a CSVSink;
// output is byte-identical to the buffered path but overlaps encoding with
// simulation, so the writer starts seeing rows mid-sweep.
func BenchmarkSweepStreamingCSV(b *testing.B) {
	cfg := benchSweepConfig()
	cfg.Parallelism = 0
	for i := 0; i < b.N; i++ {
		sink, err := experiments.NewCSVSinkFor(cfg, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Sink = sink
		if _, err := experiments.RunSweep(context.Background(), cfg, experiments.Figure14Variants()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepTemperatureGrid runs the trimmed grid crossed with three
// operating temperatures — the 3-D PEC × retention × temperature sweep —
// so the trajectory tracks what the temperature axis multiplies the cell
// count by (3× here; the per-cell cost is unchanged, all the added work is
// more cells).
func BenchmarkSweepTemperatureGrid(b *testing.B) {
	cfg := benchSweepConfig()
	cfg.Parallelism = 0
	cfg.Temps = []float64{25, 55, 85}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunSweep(context.Background(), cfg, experiments.Figure14Variants()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(cfg.Temps)), "temps")
}

// BenchmarkSweepQLCGrid runs the trimmed grid crossed with the device axis
// — TLC and QLC presets side by side — so the trajectory tracks both the
// 2× cell count and the genuinely heavier QLC cells: 16-level wordlines
// retry far deeper at the same condition, so a QLC cell simulates more
// retry steps than its TLC twin.
func BenchmarkSweepQLCGrid(b *testing.B) {
	cfg := benchSweepConfig()
	cfg.Parallelism = 0
	cfg.Devices = []ssd.Device{ssd.DeviceTLC, ssd.DeviceQLC16}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunSweep(context.Background(), cfg, experiments.Figure14Variants()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(cfg.Devices)), "devices")
}

// BenchmarkSweepSharded runs the trimmed grid as 4 shards of an
// in-process coordinator — every shard leased, executed through the shard
// subsystem over a shared in-memory cache, and completed back-to-back —
// versus BenchmarkSweepParallel's direct single run. The delta is the
// distribution layer's whole overhead: planning, per-cell content
// addressing, record assembly, and the incremental merge plus
// normalization.
func BenchmarkSweepSharded(b *testing.B) {
	cfg := benchSweepConfig()
	cfg.Parallelism = 0
	variants := experiments.Figure14Variants()
	const shards = 4
	for i := 0; i < b.N; i++ {
		cfg.Cache = cellcache.Memory()
		c := coord.New(coord.Options{Cache: cfg.Cache})
		j, err := c.Submit(coord.SpecOf(cfg, variants), shards)
		if err != nil {
			b.Fatal(err)
		}
		for l, ok := c.Lease("bench"); ok; l, ok = c.Lease("bench") {
			rec, err := shard.Run(context.Background(), cfg, variants, l.Manifest, "")
			if err != nil {
				b.Fatal(err)
			}
			if _, err := c.Complete(l.ID, rec); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := j.Result(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(shards, "shards")
}

// --- Ablations (DESIGN.md §6) -------------------------------------------------

func BenchmarkAblationAR2PerStepSet(b *testing.B) {
	tm := experiments.PaperTimings()
	var extra float64
	for i := 0; i < b.N; i++ {
		once := core.BuildPlan(core.AR2, 10, tm, core.Options{}).Latency()
		per := core.BuildPlan(core.AR2, 10, tm, core.Options{PerStepSetFeature: true}).Latency()
		extra = (per - once).Microseconds()
	}
	b.ReportMetric(extra, "per_step_set_cost_us")
}

func BenchmarkAblationRPTMargin(b *testing.B) {
	model := vth.NewModel(vth.DefaultParams(), 1)
	var lost float64
	for i := 0; i < b.N; i++ {
		aggressive := rpt.DefaultConfig()
		aggressive.SafetyMarginBits = 0
		a, err := rpt.Profile(model, aggressive)
		if err != nil {
			b.Fatal(err)
		}
		safe, err := rpt.Profile(model, rpt.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		lost = nand.LevelFraction(a.Lookup(2000, 12))*100 -
			nand.LevelFraction(safe.Lookup(2000, 12))*100
	}
	b.ReportMetric(lost, "margin_cost_pct_points")
}

func BenchmarkAblationDischargeShave(b *testing.B) {
	// §5.2.2's conclusion: shaving tDISCH 7 % on top of the tPRE cut buys
	// 1.75 % of tR but can cost up to 5.6 % of the ECC capability.
	model := vth.NewModel(vth.DefaultParams(), 1)
	tm := nand.DefaultTiming()
	cond := vth.Condition{PEC: 2000, RetentionMonths: 12, TempC: 30}
	var costBits float64
	for i := 0; i < b.N; i++ {
		preOnly := nand.Reduction{Pre: nand.LevelFraction(6)}
		withDisch := nand.Reduction{Pre: nand.LevelFraction(6), Disch: nand.LevelFraction(1)}
		costBits = float64(model.MaxTimingPenalty(cond, withDisch) -
			model.MaxTimingPenalty(cond, preOnly))
	}
	b.ReportMetric(costBits, "extra_error_bits")
	b.ReportMetric(tm.TRFraction(nand.Reduction{Disch: nand.LevelFraction(1)})*100, "tR_gain_pct")
}

// --- §8 extension benches -------------------------------------------------------

func BenchmarkExtensionRegularReads(b *testing.B) {
	// §8 "Latency Reduction for Regular Reads": RPT-safe timing on every
	// initial sensing, measured on a young device where no retries occur.
	cfg := benchSSDConfig()
	cfg.Scheme = core.AR2
	cfg.PEC, cfg.RetentionMonths = 250, 0.2
	recs := benchTrace(b, cfg, "YCSB-C", 1000)
	var gain float64
	for i := 0; i < b.N; i++ {
		plain := runScheme(b, cfg, recs, core.AR2, false)
		ext := cfg
		ext.ReducedRegularReads = true
		dev, err := ssd.New(ext)
		if err != nil {
			b.Fatal(err)
		}
		st, err := dev.Run(recs)
		if err != nil {
			b.Fatal(err)
		}
		gain = 1 - st.MeanRead()/plain.MeanRead()
	}
	b.ReportMetric(gain*100, "clean_read_gain_pct")
}

func BenchmarkExtensionDriftPredictor(b *testing.B) {
	// §8 "Further Reduction of Read-Retry Latency": model-guided ladder
	// start, compared with the PSO history-based baseline.
	cfg := benchSSDConfig()
	cfg.PEC, cfg.RetentionMonths = 2000, 12
	recs := benchTrace(b, cfg, "YCSB-C", 1000)
	var predSteps, psoSteps float64
	for i := 0; i < b.N; i++ {
		pso := runScheme(b, cfg, recs, core.Baseline, true)
		pred := cfg
		pred.UseDriftPredictor = true
		dev, err := ssd.New(pred)
		if err != nil {
			b.Fatal(err)
		}
		st, err := dev.Run(recs)
		if err != nil {
			b.Fatal(err)
		}
		predSteps, psoSteps = st.MeanRetrySteps(), pso.MeanRetrySteps()
	}
	b.ReportMetric(predSteps, "predictor_mean_steps")
	b.ReportMetric(psoSteps, "pso_mean_steps")
}

// --- Substrate micro-benchmarks -------------------------------------------------

// BenchmarkReadPath measures the steady-state per-read cost of the chip
// read stack (PR 3's tentpole target): one ReadRetry through the
// condition-resident profile fast path versus the preserved direct-model
// reference path. The fast sub-benchmark must stay ≥3× faster with ≤2
// allocs/op (it is allocation-free). Run both with
// `go test -run NONE -bench BenchmarkReadPath -benchmem .`.
func BenchmarkReadPath(b *testing.B) {
	bench := func(b *testing.B, fast bool) {
		model := vth.NewModel(vth.DefaultParams(), 1)
		geom := nand.DefaultGeometry()
		c, err := chip.New(geom, nand.DefaultTiming(), model, 0)
		if err != nil {
			b.Fatal(err)
		}
		c.SetFastPath(fast)
		c.SetCondition(2000, 12, 30)
		var reg nand.FeatureRegister
		reg.Set(6, 0, 0)
		c.SetFeature(reg)
		addrs := make([]nand.Address, 64)
		for i := range addrs {
			addrs[i] = nand.Address{
				Plane: i % geom.PlanesPerDie,
				Block: (i * 37) % geom.BlocksPerPlane,
				Page:  (i * 11) % geom.PagesPerBlock,
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		steps := 0
		for i := 0; i < b.N; i++ {
			steps += c.ReadRetry(addrs[i%len(addrs)], 30).RetrySteps
		}
		_ = steps
	}
	b.Run("fast", func(b *testing.B) { bench(b, true) })
	b.Run("slow", func(b *testing.B) { bench(b, false) })
}

// BenchmarkSweepCell measures one full Figure 14 sweep cell at default
// evaluation scale (2,500 requests against the experiment-scale device) —
// the unit of work the sweep engine fans out — through the fast and
// reference read paths. The fast-metrics sub-benchmark is the fast cell
// with per-block retry accounting enabled; its ns/op must stay within 2%
// of plain fast (the metrics layer is two memoized plan lookups and a few
// array writes per read); compare the pair with
// `go test -run NONE -bench 'BenchmarkSweepCell/fast' -benchmem .`.
func BenchmarkSweepCell(b *testing.B) {
	bench := func(b *testing.B, fast, metrics bool) {
		cfg := ssd.ExperimentConfig()
		cfg.PEC, cfg.RetentionMonths = 2000, 12
		cfg.Scheme = core.PnAR2
		cfg.DisableReadFastPath = !fast
		cfg.RetryMetrics = metrics
		spec, err := workload.ByName("YCSB-C")
		if err != nil {
			b.Fatal(err)
		}
		spec.FootprintPages = cfg.TotalPages() * 6 / 10
		spec.AvgIOPS = 1200 / spec.AvgPagesPerRequest()
		recs := workload.NewGenerator(spec, 7).Generate(2500)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dev, err := ssd.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			st, err := dev.Run(recs)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(st.MeanRetrySteps(), "mean_nrr")
			}
		}
	}
	b.Run("fast", func(b *testing.B) { bench(b, true, false) })
	b.Run("fast-metrics", func(b *testing.B) { bench(b, true, true) })
	b.Run("slow", func(b *testing.B) { bench(b, false, false) })
}

func BenchmarkVthModelRead(b *testing.B) {
	model := vth.NewModel(vth.DefaultParams(), 1)
	cond := vth.Condition{PEC: 2000, RetentionMonths: 12, TempC: 30}
	var steps int
	for i := 0; i < b.N; i++ {
		pg := vth.PageID{Chip: i % 160, Block: i % 120, Page: i % 576}
		steps = model.Read(pg, cond, nand.CSB, nand.Reduction{}).RetrySteps
	}
	_ = steps
}

func BenchmarkSSDSimulationThroughput(b *testing.B) {
	cfg := benchSSDConfig()
	cfg.PEC, cfg.RetentionMonths = 1000, 6
	recs := benchTrace(b, cfg, "YCSB-B", 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev, err := ssd.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dev.Run(recs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(recs)), "requests/op")
}
