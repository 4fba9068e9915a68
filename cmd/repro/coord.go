// The coordinator sweep modes: -serve turns this process into the sweep
// coordinator (shards the selected Figure 14/15 grids, serves them to
// -worker processes over HTTP, accepts submissions from -submit clients
// over the same cellcache, renders when every job completes), -worker
// turns it into a puller that executes shards until the coordinator
// drains, and -submit sends the selected sweeps to a running coordinator
// and waits for the merged results. -spawn-shards N is -serve on a
// loopback port plus N child -worker processes this process supervises.
// No process needs a shared directory — records travel over the wire —
// though workers still want -cache-dir for crash-resume, and the
// coordinator -state-dir to survive its own crash.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"readretry/internal/experiments"
	"readretry/internal/experiments/cellcache"
	"readretry/internal/experiments/coord"
)

var (
	serveAddr  = flag.String("serve", "", "run as sweep coordinator on this host:port: serve the selected Figure 14/15 sweeps to -worker processes, accept -submit jobs, render when every job completes")
	workerAddr = flag.String("worker", "", "run as sweep worker: pull and execute shards from the coordinator at this host:port until it drains (-cache-dir recommended for crash-resume)")
	submitAddr = flag.String("submit", "", "submit the selected Figure 14/15 sweeps to the coordinator at this host:port and wait for the merged results")

	spawnShards = flag.Int("spawn-shards", 0, "run a loopback coordinator (as -serve does) and fork this many child repro -worker processes to drain it; each sweep is cut into -serve-shards shards")
	serveShards = flag.Int("serve-shards", 8, "how many shards to partition each submitted sweep into (with -serve, -spawn-shards or -submit)")
	leaseTTL    = flag.Duration("lease-ttl", coord.DefaultLeaseTTL, "how long a worker lease survives without a heartbeat before its shard is re-leased (with -serve)")
	stateDir    = flag.String("state-dir", "", "directory for the coordinator's crash-safe state (with -serve or -spawn-shards): a journal of submissions and a store of every merged cell; a killed coordinator restarted with the same -state-dir resumes every job with zero lost work")
)

// networked reports whether a coordinator-protocol sweep mode is active
// (worker mode is its own early-exit path and not counted here).
func networked() bool { return *serveAddr != "" || *submitAddr != "" || *spawnShards > 0 }

func coordLogf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "repro: "+format+"\n", args...)
}

// openDiskCache opens the -cache-dir tier with its integrity events
// (corrupt entries quarantined, removed or stranded) logged to stderr.
func openDiskCache(dir string) (*cellcache.DiskCache, error) {
	c, err := cellcache.Disk(dir)
	if err != nil {
		return nil, err
	}
	c.SetLogf(coordLogf)
	return c, nil
}

// runWorkerMode is the -worker entry point: everything the worker needs
// arrives in each lease, so the only local choices are the cache tier and
// the pool size.
func runWorkerMode() error {
	var cache cellcache.Cache
	if *cacheDir != "" {
		c, err := openDiskCache(*cacheDir)
		if err != nil {
			return err
		}
		cache = c
	} else {
		coordLogf("worker: no -cache-dir; a crash loses this process's in-flight cells")
		cache = cellcache.Memory()
	}
	coordLogf("worker: pulling shards from %s", *workerAddr)
	return coord.RunWorker(context.Background(), *workerAddr, cache, *parallel, coordLogf)
}

// figureSweep is one selected figure's sweep.
type figureSweep struct {
	name     string
	variants []experiments.Variant
	render   func(*experiments.Result)
}

// selectedSweeps builds the list of selected Figure 14/15 sweeps, each
// rendered with its header once its result is complete.
func selectedSweeps(cfg experiments.Config, add func(figure, quantity, paper, measured string)) []figureSweep {
	var figs []figureSweep
	if want("fig14") {
		figs = append(figs, figureSweep{"fig14", fig14Variants(), func(res *experiments.Result) {
			header("Figure 14: SSD response time (normalized to Baseline)")
			renderFig14(res, cfg, add)
		}})
	}
	if want("fig15") {
		figs = append(figs, figureSweep{"fig15", experiments.Figure15Variants(), func(res *experiments.Result) {
			header("Figure 15: combining with PSO (normalized to Baseline)")
			renderFig15(res, cfg, add)
		}})
	}
	return figs
}

// runNetworkedSweeps dispatches -serve, -spawn-shards or -submit over the
// selected figures, rendering each merged result exactly as the
// single-process path would.
func runNetworkedSweeps(cfg experiments.Config, figs []figureSweep) error {
	switch {
	case *serveAddr != "":
		return runServeMode(cfg, figs, *serveAddr, 0)
	case *spawnShards > 0:
		return runServeMode(cfg, figs, "127.0.0.1:0", *spawnShards)
	}
	return runSubmitMode(cfg, figs)
}

// workerPool supervises the -spawn-shards children.
type workerPool struct {
	cmds   []*exec.Cmd
	exited chan struct{} // closed once every child has exited and been reaped
}

// spawnWorkers starts n children of this executable as `repro -worker
// addr`. Everything sweep-defining travels in each lease's Spec, so only
// the pool size and the cache tier are forwarded. Unless -parallel is
// pinned, each child gets an even slice of the machine so n children do
// not oversubscribe it n×.
func spawnWorkers(addr string, n int) (*workerPool, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	par := *parallel
	if par <= 0 {
		if par = runtime.GOMAXPROCS(0) / n; par < 1 {
			par = 1
		}
	}
	args := []string{"-worker", addr, "-parallel", strconv.Itoa(par)}
	if *cacheDir != "" {
		args = append(args, "-cache-dir", *cacheDir)
	}
	p := &workerPool{exited: make(chan struct{})}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			p.kill() // the started children's waiters reap them
			return nil, fmt.Errorf("starting worker %d/%d: %w", i+1, n, err)
		}
		p.cmds = append(p.cmds, cmd)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = cmd.Wait() // the exit status stays in cmd.ProcessState
		}()
	}
	go func() {
		wg.Wait()
		close(p.exited)
	}()
	return p, nil
}

// kill signals every child still running; one that already exited makes
// Kill a harmless no-op.
func (p *workerPool) kill() {
	for _, cmd := range p.cmds {
		_ = cmd.Process.Kill()
	}
}

// stop kills the children and waits until all have exited. It runs once
// the coordinator is done: a child has nothing left to deliver, and a
// worker that never reached the coordinator would otherwise retry forever.
func (p *workerPool) stop() {
	p.kill()
	<-p.exited
}

// err reports a pool that emptied before the sweeps completed, naming its
// first child. Call it only once exited is closed.
func (p *workerPool) err() error {
	first := p.cmds[0]
	return fmt.Errorf("every spawned worker exited before the sweeps completed (worker 1/%d, pid %d: %v)",
		len(p.cmds), first.Process.Pid, first.ProcessState)
}

// runServeMode is the -serve daemon: one coordinator over this process's
// cellcache, listening on addr, the selected figures submitted to itself,
// shards served to workers until every job — its own and any a -submit
// client sends while it is up — has completed. It renders its own figures
// and exits; an external job keeps it alive until that job completes too.
// With spawn > 0 (-spawn-shards) it also forks that many child workers
// after submitting, fails if all of them exit before the jobs complete,
// and kills any still running once it is done.
//
// With -state-dir, the coordinator keeps every merged cell in a store
// under it and journals every submission and completion before it is
// acknowledged, and startup replays the journal's submissions over the
// store: a SIGKILL'd coordinator restarted with the same -state-dir
// resumes where it died, re-simulating nothing. -cache-dir then serves
// only the spawned workers. SIGTERM/SIGINT trigger a graceful exit
// instead: stop granting leases, let in-flight deliveries land
// (journaled), flush, exit 0.
func runServeMode(cfg experiments.Config, figs []figureSweep, addr string, spawn int) error {
	var c *coord.Coordinator
	opts := coord.Options{LeaseTTL: *leaseTTL}
	if *stateDir != "" {
		recovered, stats, err := coord.Recover(*stateDir, opts)
		if err != nil {
			return err
		}
		c = recovered
		note := ""
		if stats.TornTail {
			note = " (discarded a torn final journal entry from the crash)"
		}
		coordLogf("coordinator: recovered state from %s: %s%s", *stateDir, stats, note)
	} else {
		opts.Cache = cfg.Cache
		c = coord.New(opts)
		coordLogf("coordinator: no -state-dir; a crash loses queued jobs, and merged cells survive only in -cache-dir")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		c.Close()
		return err
	}
	server := coord.NewServer(c)
	srv := &http.Server{Handler: server.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	coordLogf("coordinator: serving sweeps on %s (lease TTL %v); start workers with: repro -worker %s",
		ln.Addr(), *leaseTTL, ln.Addr())

	// finish tears the daemon down in the one safe order: drain (no new
	// leases, blocked long-polls released), let in-flight requests land,
	// then flush and close the journal.
	finish := func() error {
		server.Drain()
		shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer shutCancel()
		_ = srv.Shutdown(shutCtx)
		serr := <-serveErr
		cerr := c.Close()
		if serr != nil && !errors.Is(serr, http.ErrServerClosed) {
			return serr
		}
		return cerr
	}

	// A termination signal flips the daemon into drain mode; the wait
	// loops below notice and exit cleanly (status 0 — the journal has
	// everything a restart needs).
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sigCh)
	stop := make(chan struct{})
	var stopOnce sync.Once
	go func() {
		sig, ok := <-sigCh
		if !ok {
			return
		}
		coordLogf("coordinator: received %v; draining (in-flight completions will land, journal will flush)", sig)
		server.Drain()
		stopOnce.Do(func() { close(stop) })
	}()

	type ownJob struct {
		fig figureSweep
		job *coord.Job
	}
	var own []ownJob
	for _, f := range figs {
		j, err := c.Submit(coord.SpecOf(cfg, f.variants), *serveShards)
		if err != nil {
			finish()
			return fmt.Errorf("%s: %w", f.name, err)
		}
		st, _ := c.Status(j.ID)
		coordLogf("coordinator: %s is job %.12s… (%d cells over %d shards, %d already cached)",
			f.name, j.ID, st.TotalCells, st.ShardCount, st.CellsDone)
		own = append(own, ownJob{f, j})
	}

	// workersGone stays nil, never ready, unless this process supervises
	// its own workers.
	var pool *workerPool
	var workersGone <-chan struct{}
	if spawn > 0 {
		if pool, err = spawnWorkers(ln.Addr().String(), spawn); err != nil {
			finish()
			return err
		}
		// Deferred, so it runs after the finish() of every return below.
		defer pool.stop()
		workersGone = pool.exited
	}

	for _, o := range own {
		for done := false; !done; {
			select {
			case <-stop:
				coordLogf("coordinator: exiting before %s completed; restart with -state-dir %s to resume", o.fig.name, *stateDir)
				return finish()
			case <-o.job.Done():
				done = true
			case <-workersGone:
				finish()
				return pool.err()
			case <-time.After(2 * time.Second):
				if *progress {
					st, _ := c.Status(o.job.ID)
					coordLogf("coordinator: %s: %d/%d cells, %d/%d shards",
						o.fig.name, st.CellsDone, st.TotalCells, st.ShardsDone, st.ShardCount)
				}
			}
		}
		res, err := o.job.Result()
		if err != nil {
			finish()
			return fmt.Errorf("%s: %w", o.fig.name, err)
		}
		o.fig.render(res)
		if err := writeFigureCSVs(o.fig.name, cfg, res); err != nil {
			finish()
			return err
		}
	}

	// Drain externally submitted jobs before going away; a fresh snapshot
	// each round catches jobs submitted while the previous ones finished.
	for {
		waiting := 0
		for _, st := range c.Jobs() {
			if st.Done {
				continue
			}
			if j, ok := c.Job(st.ID); ok {
				if waiting == 0 {
					coordLogf("coordinator: own sweeps done; draining externally submitted job %.12s…", st.ID)
				}
				waiting++
				select {
				case <-stop:
					coordLogf("coordinator: exiting with external jobs pending; restart with -state-dir %s to resume", *stateDir)
					return finish()
				case <-workersGone:
					finish()
					return pool.err()
				case <-j.Done():
				}
			}
		}
		if waiting == 0 {
			break
		}
	}

	return finish()
}

// runSubmitMode is the -submit client: register every selected sweep first
// (so the coordinator can serve them concurrently and share overlapping
// cells), then block on each result in order.
func runSubmitMode(cfg experiments.Config, figs []figureSweep) error {
	cl := coord.NewClient(*submitAddr)
	ctx := context.Background()
	receipts := make([]coord.SubmitReceipt, len(figs))
	for i, f := range figs {
		r, err := cl.Submit(ctx, coord.SpecOf(cfg, f.variants), *serveShards)
		if err != nil {
			return fmt.Errorf("%s: submitting to %s: %w", f.name, *submitAddr, err)
		}
		coordLogf("submitted %s as job %.12s… (%d cells over %d shards)", f.name, r.JobID, r.TotalCells, r.Shards)
		receipts[i] = r
	}
	for i, f := range figs {
		res, err := cl.Result(ctx, receipts[i].JobID)
		if err != nil {
			return fmt.Errorf("%s: %w", f.name, err)
		}
		f.render(res)
		if err := writeFigureCSVs(f.name, cfg, res); err != nil {
			return err
		}
	}
	return nil
}
