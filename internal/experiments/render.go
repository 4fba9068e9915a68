package experiments

import (
	"fmt"
	"io"
	"strings"

	"readretry/internal/charz"
	"readretry/internal/core"
	"readretry/internal/nand"
	"readretry/internal/sim"
	"readretry/internal/workload"
)

// RenderTable1 prints the NAND timing parameters (Table 1).
func RenderTable1(w io.Writer, t nand.Timing) {
	fmt.Fprintln(w, "Table 1: NAND flash timing parameters")
	rows := []struct {
		name string
		v    sim.Time
	}{
		{"tR (avg.)", t.AvgTR()},
		{"tPRE", t.TPre},
		{"tEVAL", t.TEval},
		{"tDISCH", t.TDisch},
		{"tPROG", t.TProg},
		{"tBERS", t.TBers},
		{"tSET", t.TSet},
		{"tRST (read)", t.TRst},
		{"tDMA (16 KiB)", t.TDMA},
	}
	for _, r := range rows {
		fmt.Fprintf(w, "  %-14s %v\n", r.name, r.v)
	}
}

// RenderTable2 prints the workload characteristics (Table 2).
func RenderTable2(w io.Writer) {
	fmt.Fprintln(w, "Table 2: I/O characteristics of the evaluated workloads")
	fmt.Fprintf(w, "  %-8s %10s %10s\n", "workload", "read", "cold")
	for _, s := range workload.Table2() {
		fmt.Fprintf(w, "  %-8s %10.2f %10.2f\n", s.Name, s.ReadRatio, s.ColdRatio)
	}
}

// RenderFigure4b prints the RBER ladder of the last retry steps.
func RenderFigure4b(w io.Writer, series []charz.LadderSeries) {
	fmt.Fprintln(w, "Figure 4b: errors per 1 KiB over the last retry steps")
	for _, s := range series {
		fmt.Fprintf(w, "  page needing N=%d steps at (%gK, %gmo):\n",
			s.StepsNeeded, float64(s.PEC)/1000, s.Months)
		lo := s.StepsNeeded - 3
		if lo < 0 {
			lo = 0
		}
		for k := lo; k <= s.StepsNeeded; k++ {
			tag := ""
			if k == s.StepsNeeded {
				tag = "  <- final step (succeeds)"
			}
			fmt.Fprintf(w, "    step N-%d: %4d errors%s\n",
				s.StepsNeeded-k, s.ErrorsPerStep[k], tag)
		}
	}
}

// RenderFigure5 prints the retry-step distribution grid.
func RenderFigure5(w io.Writer, grid []charz.RetryHistogram) {
	fmt.Fprintln(w, "Figure 5: read-retry characteristics (per condition)")
	fmt.Fprintf(w, "  %-5s %-6s %8s %5s %5s %9s %9s\n",
		"PEC", "months", "mean", "min", "max", "P(N>=7)", "P(N>=8)")
	for _, h := range grid {
		fmt.Fprintf(w, "  %-5d %-6g %8.2f %5d %5d %9.3f %9.3f\n",
			h.PEC, h.Months, h.Mean, h.Min, h.Max,
			h.FractionAtLeast(7), h.FractionAtLeast(8))
	}
}

// RenderFigure7 prints the final-retry-step error margins.
func RenderFigure7(w io.Writer, points []charz.MarginPoint, capability int) {
	fmt.Fprintln(w, "Figure 7: ECC-capability margin in the final retry step")
	fmt.Fprintf(w, "  %-6s %-5s %-6s %7s %8s %9s\n",
		"tempC", "PEC", "months", "M_ERR", "margin", "margin%")
	for _, p := range points {
		fmt.Fprintf(w, "  %-6g %-5d %-6g %7d %8d %8.1f%%\n",
			p.TempC, p.PEC, p.Months, p.MErr, p.Margin,
			float64(p.Margin)/float64(capability)*100)
	}
}

// RenderSweep prints a timing-reduction sweep (Figures 8 and 9).
func RenderSweep(w io.Writer, title string, points []charz.SweepPoint) {
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "  %-5s %-6s %-6s %6s %6s %6s %7s %7s\n",
		"PEC", "months", "tempC", "dPRE", "dEVAL", "dDISCH", "M_ERR", "dM_ERR")
	for _, p := range points {
		fmt.Fprintf(w, "  %-5d %-6g %-6g %5.0f%% %5.0f%% %5.0f%% %7d %7d\n",
			p.PEC, p.Months, p.TempC,
			p.Red.Pre*100, p.Red.Eval*100, p.Red.Disch*100, p.MErr, p.DeltaErr)
	}
}

// RenderFigure11 prints the minimum safe tPRE selections.
func RenderFigure11(w io.Writer, points []charz.SafePoint) {
	fmt.Fprintln(w, "Figure 11: minimum tPRE for safe tRETRY reduction (14-bit margin)")
	fmt.Fprintf(w, "  %-5s %-6s %6s %10s\n", "PEC", "months", "level", "reduction")
	for _, p := range points {
		fmt.Fprintf(w, "  %-5d %-6g %6d %9.1f%%\n", p.PEC, p.Months, p.Level, p.Reduction*100)
	}
}

// RenderFigure6 prints the PAGE READ vs CACHE READ comparison for two
// back-to-back reads on one die (the mechanism Figure 6 depicts): with the
// basic command, read B's sensing waits for read A's data transfer; with
// CACHE READ it overlaps, saving tDMA from B's response time.
func RenderFigure6(w io.Writer, t nand.Timing) {
	tr := t.AvgTR()
	basic := tr + t.TDMA + tr + t.TDMA + t.TECC
	cached := tr + tr + t.TDMA + t.TECC
	fmt.Fprintln(w, "Figure 6: two consecutive reads on one die (REQ2 response time)")
	fmt.Fprintf(w, "  %-22s %v\n", "basic PAGE READ:", basic)
	fmt.Fprintf(w, "  %-22s %v\n", "CACHE READ pipelining:", cached)
	fmt.Fprintf(w, "  %-22s %v (= tDMA)\n", "saved:", basic-cached)
}

// Figure6Saving returns the CACHE READ saving for a second back-to-back
// read: tDMA (the transfer overlapped with the next sensing).
func Figure6Saving(t nand.Timing) sim.Time { return t.TDMA }

// RenderFigure12 prints the regular-vs-PR² latency comparison over retry
// counts (the timeline Figure 12 depicts).
func RenderFigure12(w io.Writer, timings core.StepTimings) {
	fmt.Fprintln(w, "Figure 12: regular read-retry vs PR2 (uncontended read latency)")
	fmt.Fprintf(w, "  %-5s %12s %12s %9s\n", "N_RR", "regular", "PR2", "saved")
	for _, nrr := range []int{0, 1, 2, 4, 8, 16, 21} {
		base := core.BuildPlan(core.Baseline, nrr, timings, core.Options{}).Latency()
		pr := core.BuildPlan(core.PR2, nrr, timings, core.Options{}).Latency()
		fmt.Fprintf(w, "  %-5d %12v %12v %9v\n", nrr, base, pr, base-pr)
	}
}

// RenderFigure13 prints the AR²/PnAR² latency comparison.
func RenderFigure13(w io.Writer, timings core.StepTimings) {
	fmt.Fprintln(w, "Figure 13: AR2 and PnAR2 (uncontended read latency)")
	fmt.Fprintf(w, "  %-5s %12s %12s %12s %12s\n", "N_RR", "regular", "AR2", "PR2", "PnAR2")
	for _, nrr := range []int{1, 2, 4, 8, 16, 21} {
		base := core.BuildPlan(core.Baseline, nrr, timings, core.Options{}).Latency()
		ar := core.BuildPlan(core.AR2, nrr, timings, core.Options{}).Latency()
		pr := core.BuildPlan(core.PR2, nrr, timings, core.Options{}).Latency()
		both := core.BuildPlan(core.PnAR2, nrr, timings, core.Options{}).Latency()
		fmt.Fprintf(w, "  %-5d %12v %12v %12v %12v\n", nrr, base, ar, pr, both)
	}
}

// Comparison pairs a paper-reported number with the measured one, for
// EXPERIMENTS.md.
type Comparison struct {
	Figure   string
	Quantity string
	Paper    string
	Measured string
}

// RenderComparisons prints a paper-vs-measured table.
func RenderComparisons(w io.Writer, comps []Comparison) {
	fmt.Fprintf(w, "%-10s %-58s %16s %16s\n", "where", "quantity", "paper", "measured")
	fmt.Fprintln(w, strings.Repeat("-", 104))
	for _, c := range comps {
		fmt.Fprintf(w, "%-10s %-58s %16s %16s\n", c.Figure, c.Quantity, c.Paper, c.Measured)
	}
}

// PaperTimings returns the StepTimings of Table 1 with the average tR and
// the RPT's worst-case 40 % tPRE reduction — the numbers §6 uses.
func PaperTimings() core.StepTimings {
	tm := nand.DefaultTiming()
	return core.StepTimings{
		SenseDefault: tm.AvgTR(),
		SenseReduced: avgTRReduced(tm, nand.Reduction{Pre: nand.LevelFraction(6)}),
		DMA:          tm.TDMA,
		ECC:          tm.TECC,
		Set:          tm.TSet,
		Reset:        tm.TRst,
	}
}

func avgTRReduced(tm nand.Timing, r nand.Reduction) sim.Time {
	total := sim.Time(0)
	for _, pt := range []nand.PageType{nand.LSB, nand.CSB, nand.MSB} {
		total += tm.TR(pt, r)
	}
	return total / 3
}
