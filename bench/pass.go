package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"readretry/internal/experiments"
	"readretry/internal/experiments/cellcache"
	"readretry/internal/experiments/coord"
	"readretry/internal/experiments/shard"
)

// paperPnAR2Reduction is §7.2's headline: PnAR² cuts the average response
// time of the Figure 14 grid by 28.9 % against Baseline.
const paperPnAR2Reduction = 0.289

// passReport is what one untraced pass over a workload's grid measured.
type passReport struct {
	Cells int `json:"cells"`
	// Rows counts the output rows checked against the expected CSV, Bad
	// the ones that differ; a pass that errored counts every cell bad.
	Rows      int     `json:"rows"`
	Bad       int     `json:"bad_rows"`
	Error     string  `json:"error,omitempty"`
	Usage     usage   `json:"usage"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	// PaperGapPP is |measured − paper| PnAR² average reduction in
	// percentage points, for the Figure 14 grid only: simulated accuracy,
	// not host time.
	PaperGapPP float64 `json:"paper_gap_pp,omitempty"`
}

// runPass measures one pass over the workload's seed-permuted grid and
// checks every output row against the expected CSV under root.
func runPass(root string, w benchWorkload, seed uint64) passReport {
	cfg := w.permuted(seed)
	rep := passReport{Cells: gridCells(cfg)}
	start := takeMark()
	outs, res, err := runGrid(context.Background(), w, cfg, nil)
	rep.Usage = start.usage()
	rep.PeakRSSMB = peakRSSMB()
	if err != nil {
		rep.Error = err.Error()
		rep.Rows, rep.Bad = rep.Cells, rep.Cells
		return rep
	}
	want, err := os.ReadFile(filepath.Join(root, w.Expected))
	if err != nil {
		rep.Error = err.Error()
		rep.Rows, rep.Bad = rep.Cells, rep.Cells
		return rep
	}
	for _, got := range outs {
		rows, bad := checkCSV(got, want)
		rep.Rows += rows
		rep.Bad += bad
	}
	if w.Name == "fig14" {
		avg, _ := res.Reduction("PnAR2", "Baseline", false)
		rep.PaperGapPP = math.Abs(avg-paperPnAR2Reduction) * 100
	}
	return rep
}

// runGrid executes the grid the workload's way and returns every CSV it
// produced plus the first result. onCell, when set, observes each
// completed cell.
func runGrid(ctx context.Context, w benchWorkload, cfg experiments.Config, onCell func()) ([][]byte, *experiments.Result, error) {
	if w.Coord {
		return coordPass(ctx, cfg, onCell)
	}
	out, res, err := sweepPass(ctx, cfg, onCell)
	return [][]byte{out}, res, err
}

func gridCells(cfg experiments.Config) int {
	g, err := experiments.NewGrid(cfg, experiments.Figure14Variants())
	if err != nil {
		panic(err) // the workload table is static; a bad grid is a bug
	}
	return g.Total()
}

// sweepPass runs the grid in-process the way cmd/repro does: one RunSweep
// on a pool of nproc workers streaming rows into a CSV sink.
func sweepPass(ctx context.Context, cfg experiments.Config, onCell func()) ([]byte, *experiments.Result, error) {
	cfg.Parallelism = nproc()
	var buf bytes.Buffer
	sink, err := experiments.NewCSVSinkFor(cfg, &buf)
	if err != nil {
		return nil, nil, err
	}
	cfg.Sink = sink
	if onCell != nil {
		cfg.Progress = func(int, int) { onCell() }
	}
	res, err := experiments.RunSweep(ctx, cfg, experiments.Figure14Variants())
	if err != nil {
		return nil, nil, err
	}
	return buf.Bytes(), res, nil
}

// coordWorkers is how many HTTP workers the coord workload runs, each
// simulating one cell at a time, so it never runs more simulations than
// there are CPUs.
func coordWorkers() int { return min(2, nproc()) }

// coordPass runs the grid through a coordinator served over loopback HTTP
// to coordWorkers workers, then resubmits the same spec to a fresh
// coordinator over the same cache, which must finish it from the cache
// alone. Every cache tier lives in memory: the pass measures the protocol
// and merge path, not the host's fsync latency.
func coordPass(ctx context.Context, cfg experiments.Config, onCell func()) ([][]byte, *experiments.Result, error) {
	spec := coord.SpecOf(cfg, experiments.Figure14Variants())
	cache := cellcache.Memory()
	addr, stop, err := serve(coord.New(coord.Options{Cache: cache}))
	if err != nil {
		return nil, nil, err
	}
	defer stop()
	client := coord.NewClient(addr)
	receipt, err := client.Submit(ctx, spec, coordShards)
	if err != nil {
		return nil, nil, err
	}

	rctx, abort := context.WithCancel(ctx)
	defer abort()
	errs := make([]error, coordWorkers())
	var wg sync.WaitGroup
	for i := range errs {
		w := &coord.Worker{
			Client:      coord.NewClient(addr),
			ID:          fmt.Sprintf("bench-%d", i),
			Cache:       cellcache.Memory(),
			Parallelism: 1,
			Poll:        10 * time.Millisecond,
		}
		if onCell != nil {
			w.OnCell = func(shard.Manifest, int, int) { onCell() }
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := w.Run(rctx); err != nil && !errors.Is(err, context.Canceled) {
				errs[i] = err
				abort() // the job can no longer finish; release the result wait
			}
		}(i)
	}
	res, err := client.Result(rctx, receipt.JobID)
	abort()
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, nil, fmt.Errorf("coord worker: %w", err)
	}
	if err != nil {
		return nil, nil, err
	}

	job, err := coord.New(coord.Options{Cache: cache}).Submit(spec, coordShards)
	if err != nil {
		return nil, nil, err
	}
	again, err := job.Result()
	if err != nil {
		return nil, nil, fmt.Errorf("resubmitted job did not finish from the cache: %w", err)
	}
	outs := make([][]byte, 2)
	for i, r := range []*experiments.Result{res, again} {
		var buf bytes.Buffer
		if err := r.WriteCSV(&buf); err != nil {
			return nil, nil, err
		}
		outs[i] = buf.Bytes()
	}
	return outs, res, nil
}

// serve exposes a coordinator on a loopback port. stop closes the server
// and waits for its accept loop to exit.
func serve(c *coord.Coordinator) (addr string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: coord.NewServer(c).Handler()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns ErrServerClosed once stop runs
	}()
	return ln.Addr().String(), func() {
		_ = srv.Close()
		<-done
	}, nil
}

// checkCSV compares a CSV with the expected one as a multiset of rows:
// permuting the grid reorders rows but must not change any. It returns
// how many rows were expected and how many differ; a changed row counts
// once, and a different header fails every row.
func checkCSV(got, want []byte) (rows, bad int) {
	gotHeader, gotRows := splitCSV(got)
	wantHeader, wantRows := splitCSV(want)
	if gotHeader != wantHeader {
		return len(wantRows), len(wantRows)
	}
	remaining := make(map[string]int, len(wantRows))
	for _, r := range wantRows {
		remaining[r]++
	}
	extra := 0
	for _, r := range gotRows {
		if remaining[r] > 0 {
			remaining[r]--
		} else {
			extra++
		}
	}
	missing := 0
	for _, n := range remaining {
		missing += n
	}
	return len(wantRows), max(missing, extra)
}

func splitCSV(data []byte) (header string, rows []string) {
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	return lines[0], lines[1:]
}
