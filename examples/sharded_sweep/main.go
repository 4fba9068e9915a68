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
	"fmt"
	"log"
	"os"

	"readretry"
)

func main() {
	cfg := readretry.QuickSweepConfig()
	cfg.Workloads = []string{"stg_0", "YCSB-C"}
	cfg.Conditions = []readretry.SweepCondition{
		{PEC: 1000, Months: 3}, {PEC: 2000, Months: 6},
	}
	cfg.Requests = 600
	variants := readretry.Figure14Variants()

	dir, err := os.MkdirTemp("", "sharded_sweep")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// The worker's crash-resume store: every finished cell lands here as
	// soon as it is simulated.
	cache, err := readretry.NewDiskSweepCache(dir)
	if err != nil {
		log.Fatal(err)
	}
	workerCfg := cfg
	workerCfg.Cache = cache

	// 1. Submit: the coordinator partitions the canonical cell-index space
	// round-robin into n self-describing shards.
	const n = 3
	coordinator := readretry.NewSweepCoordinator(readretry.SweepCoordinatorOptions{})
	job, err := coordinator.Submit(readretry.SweepSpecOf(cfg, variants), n)
	if err != nil {
		log.Fatal(err)
	}
	st, _ := coordinator.Status(job.ID)
	fmt.Printf("job %.12s…: %d cells over %d shards\n", job.ID, st.TotalCells, st.ShardCount)

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
		fmt.Printf("  shard %d/%d: %d cells %v\n", m.Index+1, m.Count, len(cells), cells)
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
			fmt.Printf("  shard %d/%d interrupted: %v\n", m.Index+1, m.Count, err)
			crashed = l
			continue
		}
		rec, err := readretry.RunShard(context.Background(), workerCfg, variants, m)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := coordinator.Complete(l.ID, rec); err != nil {
			log.Fatal(err)
		}
	}

	// 3. The job is not done, and Result refuses to hand out a partial grid.
	st, _ = coordinator.Status(job.ID)
	fmt.Printf("before resume: %d/%d cells merged, %d/%d shards done\n",
		st.CellsDone, st.TotalCells, st.ShardsDone, st.ShardCount)
	if _, err := job.Result(); err == nil {
		log.Fatal("a partial job reported a result")
	}

	// 4. Resume: re-run the crashed manifest over the same cache. Cells it
	// already persisted are cache hits; only the lost ones simulate. The
	// coordinator accepts a record by its content, so there is no waiting
	// for the dead lease to expire.
	rec, err := readretry.RunShard(context.Background(), workerCfg, variants, crashed.Manifest)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := coordinator.Complete(crashed.ID, rec); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shard %d/%d resumed and completed\n", crashed.Manifest.Index+1, n)

	// 5. Verify bit-identity against a fresh single-process run.
	merged, err := job.Result()
	if err != nil {
		log.Fatal(err)
	}
	unsharded, err := readretry.RunSweep(context.Background(), cfg, variants)
	if err != nil {
		log.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := unsharded.WriteCSV(&a); err != nil {
		log.Fatal(err)
	}
	if err := merged.WriteCSV(&b); err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		log.Fatal("merged CSV differs from the single-process run")
	}
	fmt.Printf("merged CSV identical to the single-process run (%d bytes)\n", b.Len())

	avg, max := merged.Reduction("PnAR2", "Baseline", false)
	fmt.Printf("PnAR2 reduction from the merged grid: avg %.1f%%, max %.1f%%\n", avg*100, max*100)
}
