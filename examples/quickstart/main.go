// Quickstart: read an aged flash page and see what PR² and AR² do to its
// latency.
//
// The example walks the paper's core story in four steps: measure how many
// retry steps an aged page needs, then compare the read latency of the four
// controller configurations on that same page.
//
//	go run ./examples/quickstart
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
	// A characterization lab over the default 160-chip population.
	lab := readretry.NewLab(2000, 1)

	// How bad is read-retry on an aged SSD? (§3.1, Figure 5)
	fmt.Fprintln(w, "Retry steps by operating condition:")
	for _, cond := range []struct {
		pec    int
		months float64
	}{{0, 0}, {0, 6}, {1000, 3}, {2000, 12}} {
		h := lab.RetrySteps(cond.pec, cond.months, 30)
		fmt.Fprintf(w, "  (%4dK P/E, %2gmo): mean %5.1f steps (min %d, max %d)\n",
			cond.pec/1000, cond.months, h.Mean, h.Min, h.Max)
	}

	// What does each controller do with a 20-step read? (§6, Figures 12/13)
	tm := readretry.PaperStepTimings()
	const nrr = 20
	fmt.Fprintf(w, "\nRead latency with N_RR = %d retry steps:\n", nrr)
	baseline := readretry.BuildPlan(readretry.Baseline, nrr, tm, readretry.ControllerOptions{})
	for _, s := range []readretry.Scheme{
		readretry.Baseline, readretry.PR2, readretry.AR2, readretry.PnAR2, readretry.NoRR,
	} {
		p := readretry.BuildPlan(s, nrr, tm, readretry.ControllerOptions{})
		fmt.Fprintf(w, "  %-8s %10v  (%.1f%% faster than the regular read-retry)\n",
			s, p.Latency(),
			(1-float64(p.Latency())/float64(baseline.Latency()))*100)
	}

	// Where does AR²'s safety come from? (§5.1, Figure 7)
	pts := lab.FinalStepMargin([]int{2000}, []float64{12}, []float64{30})
	fmt.Fprintf(w, "\nWorst-case final-retry-step errors: %d of 72 correctable — %.0f%% ECC margin\n",
		pts[0].MErr, float64(pts[0].Margin)/72*100)
	fmt.Fprintln(w, "That margin is what AR2 spends on a shorter tPRE.")
	return nil
}
