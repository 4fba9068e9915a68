// Command charlab runs the NAND characterization experiments of §4–5 on the
// simulated 160-chip fleet and prints the series behind Figures 4b, 5, 7,
// 8, 9, 10, and 11.
//
// Usage:
//
//	charlab -fig 5                # one figure
//	charlab -fig all -samples 20000
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"readretry/internal/charz"
	"readretry/internal/experiments"
	"readretry/internal/nand"
	"readretry/internal/vth"
)

func main() {
	fig := flag.String("fig", "all", "figure to run: 4b, 5, 7, 8, 9, 10, 11, or all")
	samples := flag.Int("samples", 8000, "page reads sampled per measured condition")
	seed := flag.Uint64("seed", 1, "process-variation seed")
	flag.Parse()

	figs := []string{"4b", "5", "7", "8", "9", "10", "11", "all"}
	if !slices.ContainsFunc(figs, func(f string) bool { return strings.EqualFold(f, *fig) }) {
		fmt.Fprintf(os.Stderr, "charlab: unknown -fig %q; valid names: %s\n", *fig, strings.Join(figs, ", "))
		os.Exit(2)
	}
	if *samples < 1 {
		fmt.Fprintf(os.Stderr, "charlab: -samples must be at least 1, got %d\n", *samples)
		os.Exit(2)
	}

	lab := charz.DefaultLab(*samples, *seed)
	out := os.Stdout

	run := func(name string, fn func()) {
		if *fig == "all" || strings.EqualFold(*fig, name) {
			fn()
			fmt.Fprintln(out)
		}
	}

	run("4b", func() {
		var series []charz.LadderSeries
		for _, want := range []int{16, 21} {
			s, err := lab.RBERLadder(2000, 12, want)
			if err != nil {
				fmt.Fprintf(os.Stderr, "charlab: %v\n", err)
				continue
			}
			series = append(series, s)
		}
		experiments.RenderFigure4b(out, series)
	})

	run("5", func() {
		grid := lab.Figure5([]int{0, 1000, 2000}, []float64{0, 1, 3, 6, 9, 12})
		experiments.RenderFigure5(out, grid)
	})

	run("7", func() {
		pts := lab.FinalStepMargin([]int{0, 1000, 2000}, []float64{0, 3, 6, 9, 12},
			[]float64{85, 55, 30})
		experiments.RenderFigure7(out, pts, vth.DefaultParams().CapabilityPerKiB)
	})

	run("8", func() {
		for _, cond := range []struct {
			pec    int
			months float64
		}{{0, 0}, {1000, 0}, {2000, 0}, {0, 12}, {1000, 12}, {2000, 12}} {
			var reds []nand.Reduction
			for l := 1; l <= 9; l++ {
				reds = append(reds, nand.Reduction{Pre: nand.LevelFraction(l)})
			}
			pts := lab.TimingSweep(cond.pec, cond.months, 85, reds)
			experiments.RenderSweep(out,
				fmt.Sprintf("Figure 8a: tPRE sweep at (%d, %gmo)", cond.pec, cond.months), pts)
		}
		evals := []nand.Reduction{{Eval: 0.05}, {Eval: 0.10}, {Eval: 0.15}, {Eval: 0.20}}
		experiments.RenderSweep(out, "Figure 8b: tEVAL sweep at (0, 0)",
			lab.TimingSweep(0, 0, 85, evals))
		experiments.RenderSweep(out, "Figure 8b: tEVAL sweep at (2000, 12mo)",
			lab.TimingSweep(2000, 12, 85, evals))
		var disch []nand.Reduction
		for l := 1; l <= 6; l++ {
			disch = append(disch, nand.Reduction{Disch: nand.LevelFraction(l)})
		}
		experiments.RenderSweep(out, "Figure 8c: tDISCH sweep at (2000, 12mo)",
			lab.TimingSweep(2000, 12, 85, disch))
	})

	run("9", func() {
		conds := []struct {
			pec    int
			months float64
		}{{1000, 0}, {2000, 0}, {0, 12}, {1000, 12}, {2000, 12}}
		for _, cond := range conds {
			var reds []nand.Reduction
			for _, dl := range []int{0, 1, 2, 3} { // ΔtDISCH 0–20 %
				for _, pl := range []int{0, 3, 6, 8} { // ΔtPRE 0–54 %
					reds = append(reds, nand.Reduction{
						Pre:   nand.LevelFraction(pl),
						Disch: nand.LevelFraction(dl),
					})
				}
			}
			pts := lab.TimingSweep(cond.pec, cond.months, 85, reds)
			experiments.RenderSweep(out,
				fmt.Sprintf("Figure 9: combined sweep at (%d, %gmo)", cond.pec, cond.months), pts)
		}
	})

	run("10", func() {
		for _, months := range []float64{0, 12} {
			pts := lab.TemperatureSweep(2000, months, []float64{55, 30}, []int{3, 6, 8})
			experiments.RenderSweep(out,
				fmt.Sprintf("Figure 10: temperature effect at (2K, %gmo) — dM_ERR column is the increase over 85°C", months),
				pts)
		}
	})

	run("11", func() {
		pts := lab.MinSafeTPre([]int{0, 1000, 2000}, []float64{0, 1, 3, 6, 9, 12}, 14)
		experiments.RenderFigure11(out, pts)
	})
}
