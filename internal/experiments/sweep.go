package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"readretry/internal/core"
	"readretry/internal/experiments/cellcache"
	"readretry/internal/trace"
)

// Variant is one configuration column of a sweep: a named (scheme, PSO,
// history) combination. Figure 14 sweeps the five schemes; Figure 15 adds
// the PSO-enabled combinations; HistoryVariant adds the history-aware
// policy column.
type Variant struct {
	Name   string
	Scheme core.Scheme
	PSO    bool
	// History enables the per-block history-aware retry policy
	// (ssd.Config.UseRetryHistory) for this column.
	History bool
}

// Figure14Variants returns the five §7.2 configurations in presentation
// order: Baseline, PR², AR², PnAR², NoRR.
func Figure14Variants() []Variant {
	var out []Variant
	for _, s := range []core.Scheme{core.Baseline, core.PR2, core.AR2, core.PnAR2, core.NoRR} {
		out = append(out, Variant{Name: s.String(), Scheme: s})
	}
	return out
}

// Figure15Variants returns the PSO comparison columns: plain Baseline, PSO
// alone, PSO+PnAR², and the ideal NoRR reference.
func Figure15Variants() []Variant {
	return []Variant{
		{Name: "Baseline", Scheme: core.Baseline},
		{Name: "PSO", Scheme: core.Baseline, PSO: true},
		{Name: "PSO+PnAR2", Scheme: core.PnAR2, PSO: true},
		{Name: "NoRR", Scheme: core.NoRR},
	}
}

// HistoryVariant returns the history-aware policy column: PnAR² with each
// block's ladder start seeded from its last successful read's position
// (ssd.Config.UseRetryHistory). Append it to Figure14Variants to compare
// the paper's schemes against their natural per-block-history extension;
// the default grids deliberately exclude it so their outputs stay
// byte-identical to the pre-history goldens.
func HistoryVariant() Variant {
	return Variant{Name: "PnAR2+H", Scheme: core.PnAR2, History: true}
}

// sharedTrace lazily generates one workload's request stream exactly once,
// no matter how many of its cells run concurrently.
type sharedTrace struct {
	once sync.Once
	recs []trace.Record
	err  error
}

// RunSweep executes the full (workload × condition × variant) grid through
// the SSD simulator and returns the collected cells in canonical order:
// workload-major, then condition, then variant — the same order the original
// serial loops produced. When cfg.Temps is set the condition axis is first
// expanded across it (CrossTemps), making the grid the 3-D
// PEC × retention × temperature sweep; each cell's device then runs at its
// condition's temperature instead of the Base template's.
//
// Every cell is an independent simulation, so the engine fans them out over
// a worker pool bounded by cfg.Parallelism (0 selects runtime.GOMAXPROCS).
// Each workload's trace is generated once and shared by all of its cells.
// Normalization against the reference variant (the one named "Baseline", or
// the first variant if none is) is computed per (workload, condition)
// stripe as the stripe completes, so the result does not depend on
// execution order: for a fixed cfg the parallel result is bit-identical to
// the serial one.
//
// The engine is a streaming pipeline: when cfg.Sink is set, completed
// cells are released to it in canonical order (an internal resequencer
// holds out-of-order completions until their stripe is contiguous with
// the released prefix), so consumers such as the streaming CSV encoder
// observe exactly the rows a buffered Result.WriteCSV would write while
// the sweep is still running, and need no grid-sized buffering of their
// own (the engine itself still materializes the returned Result). When
// cfg.Cache is
// set, each cell is looked up by its content address first and only
// simulated on a miss (the measurement is stored back after simulating),
// so re-running a grown grid simulates just the new cells and a second
// identical run performs zero simulations.
//
// ctx cancels the sweep: in-flight simulations finish, queued cells are
// abandoned, and the context's error is returned. cfg.Progress, when set,
// observes completed cells as they land.
func RunSweep(ctx context.Context, cfg Config, variants []Variant) (*Result, error) {
	g, err := NewGrid(cfg, variants)
	if err != nil {
		return nil, err
	}

	res := &Result{Cells: make([]Cell, g.Total())}
	for _, v := range variants {
		res.Configs = append(res.Configs, v.Name)
	}
	if len(res.Cells) == 0 {
		return res, ctx.Err()
	}

	// The full grid is the identity cell set; the resequencer restores
	// canonical order, normalizes completed stripes, and feeds the sink.
	indices := make([]int, g.Total())
	for i := range indices {
		indices[i] = i
	}
	seq := newResequencer(res.Cells, g.Stride(), ReferenceVariant(variants), cfg.Sink)
	err = runGridCells(ctx, cfg, g, indices, func(pos, idx int, c Cell) error {
		return seq.complete(idx, c)
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// runGridCells is the worker-pool core shared by RunSweep (the full grid)
// and RunCells (a shard's subset): it measures the given canonical cell
// indices and hands each completed cell to deliver with its position in
// indices and its canonical index. deliver is called from worker
// goroutines (each position exactly once); a non-nil error aborts the run.
// Progress is reported against len(indices), serialized, with done
// strictly increasing.
func runGridCells(ctx context.Context, cfg Config, g *Grid, indices []int, deliver func(pos, idx int, c Cell) error) error {
	total := len(indices)
	if total == 0 {
		return ctx.Err()
	}
	workers := cfg.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > total {
		workers = total
	}

	// A cached cell's key hashes the device template, encoded once here.
	var devJSON []byte
	if cfg.Cache != nil {
		var err error
		if devJSON, err = deviceJSON(cfg); err != nil {
			return err
		}
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	traces := make([]sharedTrace, len(g.Workloads))
	jobs := make(chan int)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex // guards done and firstErr, serializes Progress
		done     int
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel()
		}
		mu.Unlock()
	}

	cellsPerWorkload := len(g.Conds) * len(g.Variants)
	worker := func() {
		defer wg.Done()
		for pos := range jobs {
			if ctx.Err() != nil {
				return
			}
			idx := indices[pos]
			wi := idx / cellsPerWorkload // the cell's shared-trace slot
			wl, cond, v := g.CellAt(idx)

			cell := Cell{Workload: wl, Cond: cond, Config: v.Name}
			var key string
			hit := false
			if cfg.Cache != nil {
				key = hashCell(cacheKeySchema, devJSON, cfg, wl, cond, v)
				if m, ok := cfg.Cache.Get(key); ok {
					cell.Mean, cell.MeanRead = m.Mean, m.MeanRead
					cell.P99Read, cell.RetrySteps = m.P99Read, m.RetrySteps
					cell.Retry = m.Retry
					hit = true
				}
			}
			if !hit {
				// Only misses need the workload's trace; a fully warm
				// run generates none at all.
				tr := &traces[wi]
				tr.once.Do(func() { tr.recs, tr.err = traceFor(cfg, wl) })
				if tr.err != nil {
					fail(tr.err)
					return
				}
				st, err := runOne(cfg, tr.recs, cond, v)
				if err != nil {
					fail(fmt.Errorf("%s %v %s: %w", wl, cond, v.Name, err))
					return
				}
				cell.Mean, cell.MeanRead = st.MeanAll(), st.MeanRead()
				cell.P99Read, cell.RetrySteps = st.ReadPercentile(99), st.MeanRetrySteps()
				if st.Retry != nil {
					sum := st.Retry.Summary()
					cell.Retry = &sum
				}
				if cfg.Cache != nil {
					cfg.Cache.Put(key, cellcache.Measurement{
						Mean: cell.Mean, MeanRead: cell.MeanRead,
						P99Read: cell.P99Read, RetrySteps: cell.RetrySteps,
						Retry: cell.Retry,
					})
				}
			}
			if err := deliver(pos, idx, cell); err != nil {
				fail(err)
				return
			}
			mu.Lock()
			done++
			if cfg.Progress != nil {
				cfg.Progress(done, total)
			}
			mu.Unlock()
		}
	}
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go worker()
	}

feed:
	for pos := 0; pos < total; pos++ {
		select {
		case jobs <- pos:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()

	if firstErr != nil {
		return firstErr
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("experiments: sweep canceled after %d/%d cells: %w", done, total, err)
	}
	return nil
}

// normalizeStripe fills Cell.Normalized for one (workload, condition)
// stripe: each cell's Mean over the reference variant's Mean. A stripe
// whose reference cell is absent or measured a zero mean has no defined
// normalization; every cell's Normalized is set to 0 (the documented
// "not normalized" sentinel) rather than letting ±Inf or NaN flow into
// Render and the CSV encoders.
func normalizeStripe(stripe []Cell, reference string) {
	var ref float64
	for _, c := range stripe {
		if c.Config == reference {
			ref = c.Mean
			break
		}
	}
	if ref == 0 {
		for i := range stripe {
			stripe[i].Normalized = 0
		}
		return
	}
	for i := range stripe {
		stripe[i].Normalized = stripe[i].Mean / ref
	}
}
