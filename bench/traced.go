package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"readretry/internal/chip"
	"readretry/internal/core"
	"readretry/internal/experiments"
	"readretry/internal/experiments/cellcache"
	"readretry/internal/experiments/coord"
	"readretry/internal/experiments/shard"
	"readretry/internal/ftl"
	"readretry/internal/mathx"
	"readretry/internal/nand"
	"readretry/internal/rpt"
	"readretry/internal/sim"
	"readretry/internal/ssd"
	"readretry/internal/trace"
	"readretry/internal/vth"
	"readretry/internal/workload"
)

// tracedRun breaks a workload's cost into layers by calling each layer's
// public functions from outside, one call at a time, inside spans. It
// measures the same program as the untraced passes: every traced cell
// must reproduce its row of the expected CSV exactly.
type tracedRun struct {
	tr   *tracer
	root string
	cfg  experiments.Config
	grid *experiments.Grid
	// want maps a row's coordinates (every column before mean_us) to the
	// expected row.
	want map[string]string
	sink *experiments.CSVSink
	row  bytes.Buffer

	// firstTrace is the first traced cell's request stream, reused by the
	// event-engine probe.
	firstTrace []trace.Record
	caches     []*tracedCache

	attempted, failed int
	raw               map[string]float64
}

func newTracedRun(root string, w benchWorkload, seed uint64) (*tracedRun, error) {
	t := &tracedRun{tr: newTracer(), root: root, cfg: w.permuted(seed), raw: make(map[string]float64)}
	var err error
	if t.grid, err = experiments.NewGrid(t.cfg, experiments.Figure14Variants()); err != nil {
		return nil, err
	}
	if t.sink, err = experiments.NewCSVSinkFor(t.cfg, &t.row); err != nil {
		return nil, err
	}
	expected, err := os.ReadFile(filepath.Join(root, w.Expected))
	if err != nil {
		return nil, err
	}
	_, rows := splitCSV(expected)
	t.want = make(map[string]string, len(rows))
	for _, r := range rows {
		t.want[rowKey(r)] = r
	}
	return t, nil
}

// rowKey is a CSV row's coordinates: every column before the five
// measurement columns.
func rowKey(row string) string {
	f := strings.Split(row, ",")
	return strings.Join(f[:len(f)-5], ",")
}

// check formats c as the sweep's CSV sink would and reports whether its
// measurements equal the expected row's. Normalized is skipped: a traced
// cell or a shard's cell has no complete stripe to normalize against.
func (t *tracedRun) check(c experiments.Cell, idx int) error {
	t.row.Reset()
	if err := t.sink.Cell(c, idx, t.grid.Total()); err != nil {
		return err
	}
	got := strings.Split(strings.TrimSuffix(t.row.String(), "\n"), ",")
	want := strings.Split(t.want[rowKey(strings.Join(got, ","))], ",")
	t.attempted++
	n := len(got)
	same := len(want) == n
	for _, i := range []int{n - 5, n - 4, n - 3, n - 1} {
		same = same && got[i] == want[i]
	}
	if !same {
		t.failed++
	}
	return nil
}

// cellTrace generates a sweep cell's request stream exactly as the sweep
// engine does.
func cellTrace(cfg experiments.Config, wl string) ([]trace.Record, error) {
	spec, err := workload.ByName(wl)
	if err != nil {
		return nil, err
	}
	spec.FootprintPages = cfg.Base.TotalPages() * 6 / 10
	spec.AvgIOPS = cfg.IOPS / spec.AvgPagesPerRequest()
	return workload.NewGenerator(spec, cfg.Seed).Generate(cfg.Requests), nil
}

// cellDevice builds a sweep cell's device configuration exactly as the
// sweep engine does.
func cellDevice(cfg experiments.Config, cond experiments.Condition, v experiments.Variant) ssd.Config {
	dev := cfg.Base
	if cond.Device != "" {
		dev = cond.Device.Apply(dev)
	}
	dev.Scheme, dev.UsePSO, dev.UseRetryHistory = v.Scheme, v.PSO, v.History
	dev.PEC, dev.RetentionMonths = cond.PEC, cond.Months
	if cond.TempC != 0 {
		dev.TempC = cond.TempC
	}
	return dev
}

func allocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func mean(xs []time.Duration) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	var sum time.Duration
	for _, x := range xs {
		sum += x
	}
	return sum / time.Duration(len(xs))
}

func sum(xs []time.Duration) time.Duration {
	var s time.Duration
	for _, x := range xs {
		s += x
	}
	return s
}

// cells runs every stride-th canonical cell serially through
// workload.Generate → ssd.New → ssd.Run → Stats, stopping early once the
// deadline has passed.
func (t *tracedRun) cells(stride int, deadline time.Time) error {
	var (
		recs             []trace.Record
		recsOf           string
		n                int
		newMB, runMB     float64
		requests         int64
		reads, writes    int64
		steps, retried   int64
		gcJobs, suspends int64
		queueUS, svcUS   float64
	)
	for idx := 0; idx < t.grid.Total(); idx += stride {
		if n > 0 && time.Now().After(deadline) {
			break
		}
		wl, cond, v := t.grid.CellAt(idx)
		cell := t.tr.begin("experiments.cell", idx)
		var err error
		if wl != recsOf {
			t.tr.do("workload.generate", idx, func() { recs, err = cellTrace(t.cfg, wl) })
			if err != nil {
				return err
			}
			recsOf = wl
			if t.firstTrace == nil {
				t.firstTrace = recs
			}
		}
		var dev *ssd.SSD
		before := allocated()
		t.tr.do("ssd.new", idx, func() { dev, err = ssd.New(cellDevice(t.cfg, cond, v)) })
		newMB += float64(allocated()-before) / 1e6
		if err != nil {
			return err
		}
		var st *ssd.Stats
		before = allocated()
		t.tr.do("ssd.run", idx, func() { st, err = dev.Run(recs) })
		runMB += float64(allocated()-before) / 1e6
		if err != nil {
			return err
		}
		var c experiments.Cell
		t.tr.do("ssd.stats", idx, func() {
			c = experiments.Cell{Workload: wl, Cond: cond, Config: v.Name,
				Mean: st.MeanAll(), MeanRead: st.MeanRead(),
				P99Read: st.ReadPercentile(99), RetrySteps: st.MeanRetrySteps()}
		})
		t.tr.do("experiments.csv_row", idx, func() { err = t.check(c, idx) })
		if err != nil {
			return err
		}
		t.tr.end(cell)

		n++
		requests += st.Completed
		reads += st.PageReads
		writes += st.PageWrites
		for k, count := range st.RetryHistogram {
			steps += int64(k) * count
		}
		retried += st.RetriedReads
		gcJobs += st.GCJobs
		suspends += st.Suspensions
		queueUS += st.ReadQueueDelay.Mean()
		svcUS += st.ReadService.Mean()
	}

	perCell := func(x float64) float64 { return x / float64(n) }
	cellTimes := t.tr.durations("experiments.cell")
	newTimes, runTimes := t.tr.durations("ssd.new"), t.tr.durations("ssd.run")
	cellMS := make([]float64, len(cellTimes))
	for i, d := range cellTimes {
		cellMS[i] = ms(d)
	}
	r := t.raw
	r["workload.gen_ms"] = ms(mean(t.tr.durations("workload.generate")))
	r["ssd.new_ms"] = ms(mean(newTimes))
	r["ssd.new_mb"] = perCell(newMB)
	r["ssd.new_share"] = float64(sum(newTimes)) / float64(sum(cellTimes))
	r["ssd.run_ms"] = ms(mean(runTimes))
	r["ssd.run_mb"] = perCell(runMB)
	r["ssd.run_share"] = float64(sum(runTimes)) / float64(sum(cellTimes))
	r["ssd.run_ns_per_request"] = float64(sum(runTimes)) / float64(requests)
	r["ssd.requests"] = perCell(float64(requests))
	r["ssd.page_reads"] = perCell(float64(reads))
	r["ssd.page_writes"] = perCell(float64(writes))
	r["ssd.retry_steps"] = perCell(float64(steps))
	r["ssd.retried_reads"] = perCell(float64(retried))
	r["ssd.gc_jobs"] = perCell(float64(gcJobs))
	r["ssd.suspensions"] = perCell(float64(suspends))
	r["ssd.read_queue_us"] = perCell(queueUS)
	r["ssd.read_service_us"] = perCell(svcUS)
	r["experiments.cell_ms_p50"] = mathx.Percentile(cellMS, 50)
	r["experiments.cell_ms_p95"] = mathx.Percentile(cellMS, 95)
	r["experiments.cell_n"] = float64(n)
	r["experiments.csv_row_us"] = float64(mean(t.tr.durations("experiments.csv_row"))) / 1e3
	return nil
}

// tracedCache is a cell-cache tier whose calls are spans and counts.
type tracedCache struct {
	inner cellcache.Cache
	tr    *tracer
	puts  atomic.Int64
	hits  atomic.Int64
}

func (c *tracedCache) Get(key string) (cellcache.Measurement, bool) {
	id := c.tr.begin("cellcache.get", -1)
	m, ok := c.inner.Get(key)
	c.tr.end(id)
	if ok {
		c.hits.Add(1)
	}
	return m, ok
}

func (c *tracedCache) Put(key string, m cellcache.Measurement) {
	c.tr.do("cellcache.put", -1, func() { c.inner.Put(key, m) })
	c.puts.Add(1)
}

func (t *tracedRun) diskCache(dir string) (*tracedCache, error) {
	d, err := cellcache.Disk(dir)
	if err != nil {
		return nil, err
	}
	c := &tracedCache{inner: d, tr: t.tr}
	t.caches = append(t.caches, c)
	return c, nil
}

// coord runs one traced worker loop — Client.Lease → shard.Run →
// Client.Complete — against a journaled coordinator over loopback, with
// disk cache tiers, until the job finishes or the deadline has passed. It then
// resubmits the spec to a fresh coordinator over a fresh view of the same
// cache. Unlike the untraced coord workload it keeps durable state on
// disk under the checkout, so the journal and cache writes are counted.
func (t *tracedRun) coord(deadline time.Time) error {
	base := filepath.Join(t.root, stateRoot)
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(base, "trace-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ctx := context.Background()
	spec := coord.SpecOf(t.cfg, experiments.Figure14Variants())
	workerCache, err := t.diskCache(filepath.Join(dir, "worker-cache"))
	if err != nil {
		return err
	}
	coordCache, err := t.diskCache(filepath.Join(dir, "coord-cache"))
	if err != nil {
		return err
	}

	var c *coord.Coordinator
	t.tr.do("coord.recover", -1, func() {
		c, _, err = coord.Recover(filepath.Join(dir, "state"), coord.Options{Cache: coordCache, LeaseTTL: time.Hour})
	})
	if err != nil {
		return err
	}
	addr, stop, err := serve(c)
	if err != nil {
		return err
	}
	defer stop()
	client := coord.NewClient(addr)
	submit := t.tr.do("coord.submit", -1, func() { _, err = client.Submit(ctx, spec, coordShards) })
	if err != nil {
		return err
	}

	var shardMS []float64
	var runTotal, shardTotal time.Duration
	for len(shardMS) == 0 || time.Now().Before(deadline) {
		sh := t.tr.begin("coord.shard", -1)
		var l *coord.Lease
		var ok bool
		t.tr.do("coord.lease", -1, func() { l, ok, err = client.Lease(ctx, "bench-trace") })
		if err != nil {
			return err
		}
		if !ok { // the job is done
			t.tr.end(sh)
			break
		}
		cfg := l.Spec.Config()
		cfg.Parallelism, cfg.Cache = 1, workerCache
		var rec *shard.Record
		run := t.tr.do("shard.run", -1, func() { rec, err = shard.Run(ctx, cfg, l.Spec.Variants, l.Manifest, "") })
		if err != nil {
			return err
		}
		t.tr.do("coord.complete", -1, func() { _, err = client.Complete(ctx, l.ID, rec) })
		if err != nil {
			return err
		}
		d := t.tr.end(sh)
		shardMS = append(shardMS, ms(d))
		runTotal += run
		shardTotal += d
		for _, cr := range rec.Results {
			wl, cond, v := t.grid.CellAt(cr.Index)
			m := cr.Measurement
			cell := experiments.Cell{Workload: wl, Cond: cond, Config: v.Name,
				Mean: m.Mean, MeanRead: m.MeanRead, P99Read: m.P99Read, RetrySteps: m.RetrySteps}
			if err := t.check(cell, cr.Index); err != nil {
				return err
			}
		}
	}
	stop() // idempotent: the deferred call is for the error paths
	if err := c.Close(); err != nil {
		return err
	}

	cold, err := t.diskCache(filepath.Join(dir, "coord-cache"))
	if err != nil {
		return err
	}
	resubmit := t.tr.do("coord.resubmit", -1, func() {
		var again *coord.Coordinator
		again, _, err = coord.Recover(filepath.Join(dir, "state-resubmit"), coord.Options{Cache: cold})
		if err != nil {
			return
		}
		_, err = again.Submit(spec, coordShards)
		if cerr := again.Close(); err == nil {
			err = cerr
		}
	})
	if err != nil {
		return err
	}

	var journalBytes, journalEntries int
	for _, state := range []string{"state", "state-resubmit"} {
		data, err := os.ReadFile(filepath.Join(dir, state, coord.JournalFilename))
		if err != nil {
			return err
		}
		journalBytes += len(data)
		journalEntries += bytes.Count(data, []byte("\n"))
	}
	var puts, hits int64
	for _, c := range t.caches {
		puts += c.puts.Load()
		hits += c.hits.Load()
	}
	r := t.raw
	r["cellcache.put_ms"] = ms(mean(t.tr.durations("cellcache.put")))
	r["cellcache.get_us"] = float64(mean(t.tr.durations("cellcache.get"))) / 1e3
	r["cellcache.puts"] = float64(puts)
	r["cellcache.hits"] = float64(hits)
	r["coord.submit_ms"] = ms(submit)
	r["coord.resubmit_ms"] = ms(resubmit)
	r["coord.lease_ms"] = ms(mean(t.tr.durations("coord.lease")))
	r["coord.complete_ms"] = ms(mean(t.tr.durations("coord.complete")))
	r["coord.shard_ms_p50"] = mathx.Percentile(shardMS, 50)
	r["coord.shard_ms_p95"] = mathx.Percentile(shardMS, 95)
	r["coord.shards"] = float64(len(shardMS))
	r["shard.run_share"] = float64(runTotal) / float64(shardTotal)
	r["coord.journal_kb"] = float64(journalBytes) / 1024
	r["coord.durable_writes"] = float64(puts) + float64(journalEntries)
	return nil
}

// probes times the layers a cell calls but the cell spans cannot separate:
// FTL preconditioning, RPT profiling, the event engine, the chip read and
// the plan cache, plus the cache-key derivation, each at the workload's
// own geometry, devices and conditions.
func (t *tracedRun) probes() error {
	base := t.cfg.Base
	var err error

	const ftlReps = 3
	fc := ftl.Config{
		Dies:              base.Dies(),
		PlanesPerDie:      base.Geometry.PlanesPerDie,
		BlocksPerPlane:    base.Geometry.BlocksPerPlane,
		PagesPerBlock:     base.Geometry.PagesPerBlock,
		GCThresholdBlocks: base.GCThresholdBlocks,
	}
	before := allocated()
	for i := 0; i < ftlReps && err == nil; i++ {
		t.tr.do("ftl.precondition", -1, func() {
			var f *ftl.FTL
			if f, err = ftl.New(fc); err != nil {
				return
			}
			for lpn := int64(0); lpn < base.PreconditionPages && err == nil; lpn++ {
				_, err = f.Precondition(lpn)
			}
		})
	}
	if err != nil {
		return err
	}
	t.raw["ftl.precondition_mb"] = float64(allocated()-before) / 1e6 / ftlReps
	t.raw["ftl.precondition_ms"] = ms(mean(t.tr.durations("ftl.precondition")))

	ladder := 0
	for _, dev := range t.devices() {
		p := dev.Apply(base).VthParams
		ladder = max(ladder, p.MaxLadderSteps)
		model := vth.NewModel(p, base.Seed)
		t.tr.do("rpt.profile", -1, func() { _, err = rpt.Profile(model, base.RPT) })
		if err != nil {
			return err
		}
	}
	t.raw["rpt.profile_ms"] = ms(mean(t.tr.durations("rpt.profile")))

	// One event per trace arrival, the way ssd.Run schedules them.
	const minEvents = 200000
	events := 0
	for events < minEvents {
		t.tr.do("sim.events", -1, func() {
			var eng sim.Engine
			for _, r := range t.firstTrace {
				eng.Schedule(r.Arrival, func(sim.Time) {})
			}
			eng.Run()
		})
		events += len(t.firstTrace)
	}
	t.raw["sim.event_ns"] = float64(sum(t.tr.durations("sim.events"))) / float64(events)

	const readsPerCondition = 20000
	chipReads := 0
	for _, cond := range t.grid.Conds {
		dev := cellDevice(t.cfg, cond, experiments.Variant{})
		c, err := chip.New(dev.Geometry, dev.Timing, vth.NewModel(dev.VthParams, dev.Seed), 0)
		if err != nil {
			return err
		}
		c.SetCondition(dev.PEC, dev.RetentionMonths, dev.TempC)
		g := dev.Geometry
		t.tr.do("chip.read", -1, func() {
			for i := 0; i < readsPerCondition; i++ {
				c.ReadRetry(nand.Address{
					Plane: i % g.PlanesPerDie,
					Block: i * 37 % g.BlocksPerPlane,
					Page:  i * 11 % g.PagesPerBlock,
				}, c.Temp())
			}
		})
		chipReads += readsPerCondition
	}
	readNS := float64(sum(t.tr.durations("chip.read"))) / float64(chipReads)
	t.raw["chip.read_ns"] = readNS
	cellNS := float64(mean(t.tr.durations("experiments.cell")))
	t.raw["chip.read_share"] = readNS * t.raw["ssd.page_reads"] / cellNS

	const planReps = 50
	timings := experiments.PaperTimings()
	plans := 0
	t.tr.do("core.plan", -1, func() {
		for rep := 0; rep < planReps; rep++ {
			for _, v := range t.grid.Variants {
				for nrr := 0; nrr <= ladder; nrr++ {
					core.CachedPlan(v.Scheme, nrr, timings, core.Options{})
					plans++
				}
			}
		}
	})
	t.raw["core.plan_ns"] = float64(sum(t.tr.durations("core.plan"))) / float64(plans)

	keys := min(t.grid.Total(), 1200)
	t.tr.do("experiments.cellkey", -1, func() {
		for idx := 0; idx < keys && err == nil; idx++ {
			wl, cond, v := t.grid.CellAt(idx)
			_, err = experiments.CellKey(t.cfg, wl, cond, v)
		}
	})
	if err != nil {
		return err
	}
	t.raw["experiments.cellkey_us"] = float64(sum(t.tr.durations("experiments.cellkey"))) / float64(keys) / 1e3
	return nil
}

// devices lists the device presets the grid's cells run on, in first-use
// order; "" is the base template.
func (t *tracedRun) devices() []ssd.Device {
	var out []ssd.Device
	seen := make(map[ssd.Device]bool)
	for _, c := range t.grid.Conds {
		if !seen[c.Device] {
			seen[c.Device] = true
			out = append(out, c.Device)
		}
	}
	return out
}

// runTraced measures every per-layer metric of one workload. pass is an
// untraced pass of the same input, measured beforehand in its own
// process, which supplies the pool efficiency. The spans are written to
// tracePath.
func runTraced(root string, w benchWorkload, seed uint64, budget time.Duration, pass passReport, tracePath string) (*tracedRun, error) {
	t, err := newTracedRun(root, w, seed)
	if err != nil {
		return nil, err
	}
	// Each phase is a root span of the benchmark's own layer, so the
	// layers' self times add up to the traced wall time. The cells get the
	// budget; the coordinator loop runs until a quarter budget past it, and
	// for at least a quarter budget, enough to finish the coord workload's
	// whole job.
	start := time.Now()
	coordDeadline := func() time.Time {
		d := start.Add(budget + budget/4)
		if floor := time.Now().Add(budget / 4); floor.After(d) {
			return floor
		}
		return d
	}
	phases := []struct {
		name string
		run  func() error
	}{
		{"bench.cells", func() error { return t.cells(w.TraceStride, start.Add(budget)) }},
		{"bench.coord", func() error { return t.coord(coordDeadline()) }},
		{"bench.probes", t.probes},
	}
	for _, p := range phases {
		id := t.tr.begin(p.name, -1)
		if err := p.run(); err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		t.tr.end(id)
	}
	wall := time.Since(start)
	var self time.Duration
	for _, d := range t.tr.selfTimes() {
		self += d
	}
	t.raw["trace.coverage"] = float64(self) / float64(wall)
	t.raw["experiments.pool_efficiency"] = pass.Usage.CPUS / (pass.Usage.AdjWallS * float64(nproc()))
	if err := t.tr.write(tracePath, wall); err != nil {
		return nil, err
	}
	return t, nil
}
