// Characterization: run the paper's chip-study experiments (§4–5) on the
// simulated 160-chip fleet.
//
// The example reproduces, at reduced sample size, the three observations
// the techniques build on: read-retry is frequent even under modest
// conditions (Figure 5), the final retry step leaves a large ECC margin
// (Figure 7), and tPRE can be cut ~40–54 % without losing that margin
// (Figures 8/11).
//
//	go run ./examples/characterization
package main

import (
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
	lab := readretry.NewLab(4000, 1)

	fmt.Fprintln(w, "Observation 1 — read-retry is the common case (Figure 5):")
	sixMo := lab.RetrySteps(0, 6, 30)
	fmt.Fprintf(w, "  at (0 P/E, 6 months): %.1f%% of reads need >= 7 retry steps (paper: 54.4%%)\n",
		sixMo.FractionAtLeast(7)*100)
	worst := lab.RetrySteps(2000, 12, 30)
	fmt.Fprintf(w, "  at (2K P/E, 12 months): %.1f retry steps on average (paper: 19.9)\n\n", worst.Mean)

	fmt.Fprintln(w, "Observation 2 — the final retry step has a large ECC margin (Figure 7):")
	for _, temp := range []float64{85, 55, 30} {
		pts := lab.FinalStepMargin([]int{2000}, []float64{12}, []float64{temp})
		p := pts[0]
		fmt.Fprintf(w, "  at %2.0f°C: M_ERR = %2d of 72 -> %4.1f%% margin\n",
			temp, p.MErr, float64(p.Margin)/72*100)
	}
	fmt.Fprintln(w)

	fmt.Fprintln(w, "Observation 3 — that margin buys a large safe tPRE cut (Figure 11):")
	pts := lab.MinSafeTPre([]int{0, 1000, 2000}, []float64{0, 6, 12}, 14)
	for _, p := range pts {
		fmt.Fprintf(w, "  (%4dK P/E, %2gmo): safe tPRE reduction = %4.1f%%\n",
			p.PEC/1000, p.Months, p.Reduction*100)
	}

	fmt.Fprintln(w, "\nA 40% tPRE cut shortens tR by ~25% — AR2's latency win (§5.2.3).")
	return nil
}
