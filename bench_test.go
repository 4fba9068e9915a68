// Go benchmarks for the sweep engine and the read path: the ones that a
// BENCH_PR*.json file or a stated performance contract cites. The paper's
// quantities are asserted by tests, not reported here, and the bench/
// module is the end-to-end performance ledger. Run with:
//
//	go test -run NONE -bench=. -benchmem .
package readretry_test

import (
	"context"
	"io"
	"runtime"
	"testing"

	"readretry/internal/chip"
	"readretry/internal/core"
	"readretry/internal/experiments"
	"readretry/internal/experiments/cellcache"
	"readretry/internal/experiments/coord"
	"readretry/internal/experiments/shard"
	"readretry/internal/nand"
	"readretry/internal/ssd"
	"readretry/internal/vth"
	"readretry/internal/workload"
)

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

// BenchmarkSweepStreamingCSV emits rows as stripes complete via a CSVSink,
// so encoding overlaps simulation and the writer sees rows mid-sweep.
// TestFacadeStreamingCachedSweep pins the streamed bytes to Result.WriteCSV.
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
// with per-block retry accounting enabled; its ns/op should stay within 2%
// of plain fast (the metrics layer is two memoized plan lookups and a few
// array writes per read); compare the pair with
// `go test -run NONE -bench 'BenchmarkSweepCell/fast' -benchmem .`.
// TestWarmRunAllocations enforces the allocation half of that contract.
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

// BenchmarkSSDSimulationThroughput runs a 2,000-request YCSB-B trace on a
// small device (24 blocks of 48 pages per plane, 70% preconditioned).
func BenchmarkSSDSimulationThroughput(b *testing.B) {
	cfg := ssd.ExperimentConfig()
	cfg.Geometry.BlocksPerPlane = 24
	cfg.Geometry.PagesPerBlock = 48
	cfg.GCThresholdBlocks = 3
	cfg.PreconditionPages = cfg.TotalPages() * 7 / 10
	cfg.PEC, cfg.RetentionMonths = 1000, 6
	spec, err := workload.ByName("YCSB-B")
	if err != nil {
		b.Fatal(err)
	}
	spec.FootprintPages = cfg.TotalPages() * 6 / 10
	spec.AvgIOPS = 1200
	recs := workload.NewGenerator(spec, 7).Generate(2000)
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
