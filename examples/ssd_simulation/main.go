// SSD simulation: a miniature Figure 14 — the five controller
// configurations on a read-dominant YCSB-C workload at a worn operating
// point, through the full multi-queue SSD simulator.
//
// The five runs are independent, so the example drives them through the
// streaming sweep engine (readretry.RunSweep): the YCSB-C trace is
// generated once, the cells fan out over a GOMAXPROCS-bounded worker pool,
// and each table row prints the moment the engine releases it — in
// canonical order, already normalized — rather than after the whole grid
// finishes. A per-cell cache then shows the incremental property: an
// identical second sweep performs zero simulations and completes
// near-instantly with a bit-identical result.
//
//	go run ./examples/ssd_simulation
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"reflect"
	"time"

	"readretry"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// A scaled device: paper parallelism (4 channels × 4 dies × 2 planes),
	// fewer blocks so the run finishes in seconds.
	cfg := readretry.DefaultSweepConfig()
	cfg.Workloads = []string{"YCSB-C"}
	cfg.Conditions = []readretry.SweepCondition{{PEC: 2000, Months: 6}}
	cfg.Requests = 3000
	cfg.Parallelism = 0 // GOMAXPROCS workers
	cfg.Cache = readretry.NewSweepCache()

	fmt.Fprintf(w, "YCSB-C, %d requests, device aged to (2K P/E, 6 months):\n\n", cfg.Requests)
	fmt.Fprintf(w, "  %-9s %12s %12s %12s %12s\n",
		"config", "mean resp", "mean read", "p99 read", "vs Baseline")
	cfg.Sink = readretry.SweepCellSinkFunc(func(c readretry.SweepCell, index, total int) error {
		fmt.Fprintf(w, "  %-9s %10.0fus %10.0fus %10.0fus %11.1f%%\n",
			c.Config, c.Mean, c.MeanRead, c.P99Read, (1-c.Normalized)*100)
		return nil
	})

	start := time.Now()
	cold, err := readretry.RunSweep(context.Background(), cfg, readretry.Figure14Variants())
	if err != nil {
		return err
	}
	coldTook := time.Since(start)

	// Re-run the identical grid: every cell is served from the cache, so
	// no simulation (and no trace generation) happens at all.
	cfg.Sink = nil
	start = time.Now()
	warm, err := readretry.RunSweep(context.Background(), cfg, readretry.Figure14Variants())
	if err != nil {
		return err
	}
	// Wall-clock times go to stderr: stdout is pinned by testdata/golden.txt.
	fmt.Fprintf(os.Stderr, "cold sweep: %v; cached re-run: %v (zero simulations, identical: %v)\n",
		coldTook.Round(time.Millisecond), time.Since(start).Round(time.Millisecond),
		reflect.DeepEqual(cold.Cells, warm.Cells))

	fmt.Fprintln(w, "\nPnAR2 combines PR2's pipelining with AR2's shorter sensing;")
	fmt.Fprintln(w, "NoRR shows the remaining headroom an ideal no-retry SSD would have.")
	return nil
}
