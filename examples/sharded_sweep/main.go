// Sharded sweep: submit a Figure 14-style grid to an in-process sweep
// coordinator, work its shard queue the way a worker process does —
// lease, run over a disk cache, complete — and get back a merged result
// byte-identical to a single-process run, including recovering from a
// shard that "crashes" partway.
//
// The shards here run sequentially in one process to keep the example
// deterministic and self-contained; each Lease → RunShard → Complete round
// is exactly what a `repro -worker` process does over HTTP. The cmd/repro
// flags -spawn-shards, -serve, -worker and -submit drive the same
// coordinator across real processes.
package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"os"

	"readretry"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	cfg := readretry.QuickSweepConfig()
	cfg.Workloads = []string{"stg_0", "YCSB-C"}
	cfg.Conditions = []readretry.SweepCondition{
		{PEC: 1000, Months: 3}, {PEC: 2000, Months: 6},
	}
	cfg.Requests = 600
	variants := readretry.Figure14Variants()

	dir, err := os.MkdirTemp("", "sharded_sweep")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// The worker's crash-resume store: every finished cell lands here as
	// soon as it is simulated.
	cache, err := readretry.NewDiskSweepCache(dir)
	if err != nil {
		return err
	}
	workerCfg := cfg
	workerCfg.Cache = cache

	// 1. Submit: the coordinator partitions the canonical cell-index space
	// round-robin into n self-describing shards.
	const n = 3
	coordinator := readretry.NewSweepCoordinator(readretry.SweepCoordinatorOptions{})
	job, err := coordinator.Submit(readretry.SweepSpecOf(cfg, variants), n)
	if err != nil {
		return err
	}
	st, _ := coordinator.Status(job.ID)
	fmt.Fprintf(w, "job %.12s…: %d cells over %d shards\n", job.ID, st.TotalCells, st.ShardCount)

	// 2. Work the queue. The last shard "crashes" after its first cell: its
	// context is canceled, so no record reaches the coordinator.
	var crashed *readretry.SweepLease
	for {
		l, ok := coordinator.Lease("example-worker")
		if !ok {
			break
		}
		m := l.Manifest
		cells := m.Cells(st.TotalCells)
		fmt.Fprintf(w, "  shard %d/%d: %d cells %v\n", m.Index+1, m.Count, len(cells), cells)
		if m.Index == n-1 {
			ctx, cancel := context.WithCancel(context.Background())
			crashCfg := workerCfg
			crashCfg.Parallelism = 1
			crashCfg.Progress = func(done, total int) {
				if done == 1 {
					cancel() // simulate the process dying mid-shard
				}
			}
			_, err := readretry.RunShard(ctx, crashCfg, variants, m)
			fmt.Fprintf(w, "  shard %d/%d interrupted: %v\n", m.Index+1, m.Count, err)
			crashed = l
			continue
		}
		rec, err := readretry.RunShard(context.Background(), workerCfg, variants, m)
		if err != nil {
			return err
		}
		if _, err := coordinator.Complete(l.ID, rec); err != nil {
			return err
		}
	}

	// 3. The job is not done, and Result refuses to hand out a partial grid.
	st, _ = coordinator.Status(job.ID)
	fmt.Fprintf(w, "before resume: %d/%d cells merged, %d/%d shards done\n",
		st.CellsDone, st.TotalCells, st.ShardsDone, st.ShardCount)
	if _, err := job.Result(); err == nil {
		return errors.New("a partial job reported a result")
	}

	// 4. Resume: re-run the crashed manifest over the same cache. Cells it
	// already persisted are cache hits; only the lost ones simulate. The
	// coordinator accepts a record by its content, so there is no waiting
	// for the dead lease to expire.
	rec, err := readretry.RunShard(context.Background(), workerCfg, variants, crashed.Manifest)
	if err != nil {
		return err
	}
	if _, err := coordinator.Complete(crashed.ID, rec); err != nil {
		return err
	}
	fmt.Fprintf(w, "shard %d/%d resumed and completed\n", crashed.Manifest.Index+1, n)

	// 5. Verify bit-identity against a fresh single-process run.
	merged, err := job.Result()
	if err != nil {
		return err
	}
	unsharded, err := readretry.RunSweep(context.Background(), cfg, variants)
	if err != nil {
		return err
	}
	var a, b bytes.Buffer
	if err := unsharded.WriteCSV(&a); err != nil {
		return err
	}
	if err := merged.WriteCSV(&b); err != nil {
		return err
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		return errors.New("merged CSV differs from the single-process run")
	}
	fmt.Fprintf(w, "merged CSV identical to the single-process run (%d bytes)\n", b.Len())

	avg, max := merged.Reduction("PnAR2", "Baseline", false)
	fmt.Fprintf(w, "PnAR2 reduction from the merged grid: avg %.1f%%, max %.1f%%\n", avg*100, max*100)
	return nil
}
