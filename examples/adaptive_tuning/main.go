// Adaptive tuning: how AR²'s Read-timing Parameter Table is profiled, what
// the safety margin buys, and what happens when it is set too aggressively.
//
// The example profiles three RPTs with different safety margins and then
// checks each against the worst-case operating envelope — including the
// cold-temperature corner the 14-bit margin exists for (§5.2.3/§6.2).
//
//	go run ./examples/adaptive_tuning
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
	params := readretry.DefaultChipParams()

	fmt.Fprintln(w, "Profiling RPTs with different safety margins:")
	for _, margin := range []int{0, 7, 14, 21} {
		cfg := readretry.DefaultRPTConfig()
		cfg.SafetyMarginBits = margin
		table, err := readretry.ProfileRPT(params, 1, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  margin %2d bits: tPRE reduction %2.0f%%..%2.0f%%  (worst bucket: level %d)\n",
			margin,
			levelPct(table.MinLevel()), levelPct(table.MaxLevel()),
			table.Lookup(2000, 12))
	}

	fmt.Fprintln(w, "\nChecking the 14-bit table across the operating envelope:")
	cfg := readretry.DefaultRPTConfig()
	table, err := readretry.ProfileRPT(params, 1, cfg)
	if err != nil {
		return err
	}
	model := readretry.NewChipModel(params, 1)
	for _, corner := range []readretry.Condition{
		{PEC: 2000, RetentionMonths: 12, TempC: 85},
		{PEC: 2000, RetentionMonths: 12, TempC: 30}, // the corner the margin covers
		{PEC: 500, RetentionMonths: 3, TempC: 30},
	} {
		red := table.Reduction(corner.PEC, corner.RetentionMonths)
		errs := model.MaxFloorErrors(corner, readretry.CSBPage) +
			model.MaxTimingPenalty(corner, red)
		status := "OK"
		if errs > model.Capability() {
			status = "UNSAFE"
		}
		fmt.Fprintf(w, "  %-24v tPRE -%2.0f%%: worst final-step errors %2d of %d  [%s]\n",
			corner, red.Pre*100, errs, model.Capability(), status)
	}

	fmt.Fprintln(w, "\nWith the 14-bit margin the final retry step never exceeds the ECC")
	fmt.Fprintln(w, "capability, so AR2 keeps the retry-step count unchanged (§6.2).")
	return nil
}

func levelPct(level int) float64 {
	return float64(level) / 15 * 100
}
