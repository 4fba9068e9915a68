// Temperature sweep: the Figure 14 configurations across a 3-D operating
// grid — PEC × retention × temperature — on a read-dominant workload.
//
// The paper's error model is explicitly temperature-dependent: low ambient
// temperature adds raw bit errors on top of every retry step and amplifies
// the penalty of reduced read timings, so the adaptive schemes (AR², PnAR²)
// have the most to win — and the most to prove — at the cold end. This
// example crosses two aging states with three chamber temperatures via
// SweepConfig.Temps, streams each cell as the engine releases it, and then
// summarizes how each scheme's response-time reduction shifts from 25 °C
// to 85 °C (Result.ReductionByTemp). Inside the paper's calibrated
// envelope — (2K P/E, 6 months) — the RPT's safety margin absorbs the cold
// penalty and the reductions hold at every temperature, which is §5.2.3's
// safety argument made visible. Beyond the profiled envelope —
// (2.5K P/E, 18 months) — cold amplification exceeds the margin, reduced
// reads start failing, and AR²'s default-timing fallbacks erode its win at
// 25 °C. A per-cell cache makes the identical re-run perform zero
// simulations.
//
//	go run ./examples/temperature_sweep
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
	cfg := readretry.DefaultSweepConfig()
	cfg.Workloads = []string{"YCSB-C"}
	cfg.Conditions = []readretry.SweepCondition{
		{PEC: 2000, Months: 6},  // inside the calibrated envelope
		{PEC: 2500, Months: 18}, // beyond the RPT's profiled worst bucket
	}
	cfg.Temps = []float64{25, 55, 85} // cold, warm, the 85 °C reference
	cfg.Requests = 1500
	cfg.Parallelism = 0 // GOMAXPROCS workers
	cfg.Cache = readretry.NewSweepCache()

	fmt.Fprintln(w, "YCSB-C across a 3-D grid: 2 aging states × 3 chamber temperatures:")
	fmt.Fprintf(w, "\n  %-12s %-9s %12s %12s %12s\n",
		"cond", "config", "mean resp", "p99 read", "vs Baseline")
	cfg.Sink = readretry.SweepCellSinkFunc(func(c readretry.SweepCell, index, total int) error {
		fmt.Fprintf(w, "  %-12s %-9s %10.0fus %10.0fus %11.1f%%\n",
			c.Cond, c.Config, c.Mean, c.P99Read, (1-c.Normalized)*100)
		return nil
	})

	start := time.Now()
	cold, err := readretry.RunSweep(context.Background(), cfg, readretry.Figure14Variants())
	if err != nil {
		return err
	}
	coldTook := time.Since(start)

	fmt.Fprintln(w, "\nreduction vs Baseline by operating temperature:")
	fmt.Fprintf(w, "  %-8s %12s %12s\n", "temp", "PnAR2 avg", "AR2 avg")
	pnar := cold.ReductionByTemp("PnAR2", "Baseline")
	ar := cold.ReductionByTemp("AR2", "Baseline")
	for i, tr := range pnar {
		fmt.Fprintf(w, "  %5g°C %11.1f%% %11.1f%%\n", tr.TempC, tr.Avg*100, ar[i].Avg*100)
	}

	// Re-run the identical 3-D grid: every cell is content-addressed by its
	// full (condition, temperature) identity, so the warm run simulates
	// nothing.
	cfg.Sink = nil
	start = time.Now()
	warm, err := readretry.RunSweep(context.Background(), cfg, readretry.Figure14Variants())
	if err != nil {
		return err
	}
	// Wall-clock times go to stderr: stdout is pinned by testdata/golden.txt.
	fmt.Fprintf(os.Stderr, "cold 3-D sweep: %v; cached re-run: %v (zero simulations, identical: %v)\n",
		coldTook.Round(time.Millisecond), time.Since(start).Round(time.Millisecond),
		reflect.DeepEqual(cold.Cells, warm.Cells))

	fmt.Fprintln(w, "\nWithin the calibrated envelope the RPT margin absorbs the cold penalty,")
	fmt.Fprintln(w, "so the reductions hold at every temperature; past it, cold fallbacks set in.")
	return nil
}
