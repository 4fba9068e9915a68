// Command rptgen profiles a chip population and emits AR²'s Read-timing
// Parameter Table (§6.2) in human, JSON, or binary-hex form.
package main

import (
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"readretry/internal/nand"
	"readretry/internal/rpt"
	"readretry/internal/vth"
)

func main() {
	margin := flag.Int("margin", 14, "safety margin in bits (7 temperature + 7 outlier)")
	format := flag.String("format", "table", "output format: table, json, or hex")
	seed := flag.Uint64("seed", 1, "process-variation seed")
	flag.Parse()

	switch *format {
	case "table", "json", "hex":
	default:
		fmt.Fprintf(os.Stderr, "rptgen: unknown -format %q; valid formats: table, json, hex\n", *format)
		os.Exit(2)
	}

	cfg := rpt.DefaultConfig()
	cfg.SafetyMarginBits = *margin
	model := vth.NewModel(vth.DefaultParams(), *seed)
	table, err := rpt.Profile(model, cfg)
	if err != nil {
		log.Fatalf("rptgen: %v", err)
	}

	switch *format {
	case "json":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(table); err != nil {
			log.Fatalf("rptgen: %v", err)
		}
	case "hex":
		data, err := table.MarshalBinary()
		if err != nil {
			log.Fatalf("rptgen: %v", err)
		}
		fmt.Printf("%s\n# %d bytes (paper budget: 144 per chip)\n",
			hex.EncodeToString(data), len(data))
	default:
		fmt.Printf("Read-timing Parameter Table (margin %d bits)\n", *margin)
		fmt.Printf("%-10s", "PEC\\tRET")
		for _, mo := range table.RetBounds {
			fmt.Printf(" %7.0fmo", mo)
		}
		fmt.Println()
		for i, pec := range table.PECBounds {
			fmt.Printf("%-10d", pec)
			for j := range table.RetBounds {
				lvl := int(table.Levels[i][j])
				fmt.Printf(" %8s", fmt.Sprintf("%.0f%%", nand.LevelFraction(lvl)*100))
			}
			fmt.Println()
		}
		fmt.Printf("reduction range: %.0f%%..%.0f%% of tPRE (paper: 40%%..54%%)\n",
			nand.LevelFraction(table.MinLevel())*100, nand.LevelFraction(table.MaxLevel())*100)
	}
}
