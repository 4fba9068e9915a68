// QLC sweep: the Figure 14 configurations on two device presets side by
// side — the paper's 3D TLC device and a 16-level QLC device — via the
// sweep grid's device axis.
//
// The core of the reproduction is geometry-generic: page kinds per
// wordline, read-level assignments, voltage-window margins, and the retry
// ladder all derive from the cell kind (nand.CellKind), so a QLC device is
// a configuration, not a fork. The QLC preset packs 16 voltage levels into
// the same window the TLC device divides into 8, which more than doubles
// the drift in ladder steps and thins every margin — so reads retry
// harder, the retry tax on response time grows, and the paper's techniques
// (PR², AR², PnAR²) have proportionally more latency to claw back. This
// example crosses two aging states with both presets via
// SweepConfig.Devices, prints each cell as it lands, and summarizes the
// per-device reduction (Result.ReductionByDevice). A single-device sweep
// of just the QLC preset is one line: cfg.Base = DeviceQLC16.Apply(cfg.Base).
//
//	go run ./examples/qlc_sweep
package main

import (
	"context"
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
	cfg := readretry.DefaultSweepConfig()
	cfg.Workloads = []string{"YCSB-C"}
	cfg.Conditions = []readretry.SweepCondition{
		{PEC: 1000, Months: 3},  // mid-life
		{PEC: 2000, Months: 12}, // the characterization grid's worst corner
	}
	cfg.Devices = []readretry.Device{readretry.DeviceTLC, readretry.DeviceQLC16}
	cfg.Requests = 1500
	cfg.Parallelism = 0 // GOMAXPROCS workers

	fmt.Fprintln(w, "YCSB-C on two device presets: 2 aging states × {tlc, qlc16}:")
	fmt.Fprintf(w, "\n  %-15s %-9s %12s %12s %12s\n",
		"cond", "config", "mean resp", "retry steps", "vs Baseline")
	cfg.Sink = readretry.SweepCellSinkFunc(func(c readretry.SweepCell, index, total int) error {
		fmt.Fprintf(w, "  %-15s %-9s %10.0fus %12.1f %11.1f%%\n",
			c.Cond, c.Config, c.Mean, c.RetrySteps, (1-c.Normalized)*100)
		return nil
	})

	res, err := readretry.RunSweep(context.Background(), cfg, readretry.Figure14Variants())
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "\nreduction vs Baseline by device:")
	fmt.Fprintf(w, "  %-8s %12s %12s\n", "device", "PnAR2 avg", "PnAR2 max")
	for _, dr := range res.ReductionByDevice("PnAR2", "Baseline") {
		fmt.Fprintf(w, "  %-8s %11.1f%% %11.1f%%\n", dr.Device, dr.Avg*100, dr.Max*100)
	}

	fmt.Fprintln(w, "\nThe QLC preset's 16 levels double the drift per month and thin every")
	fmt.Fprintln(w, "margin: reads retry deeper, so the retry-time optimizations are worth")
	fmt.Fprintln(w, "more on QLC than on the TLC device the paper characterized.")
	return nil
}
