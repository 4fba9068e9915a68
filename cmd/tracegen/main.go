// Command tracegen emits a synthetic block-I/O trace for any of the twelve
// Table 2 workloads, in MSR-Cambridge CSV format.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"readretry/internal/trace"
	"readretry/internal/workload"
)

func main() {
	name := flag.String("workload", "YCSB-C", "Table 2 workload name")
	n := flag.Int("n", 10000, "number of requests")
	iops := flag.Float64("iops", 0, "average arrival rate (0 = workload default)")
	footprint := flag.Int64("footprint", 0, "footprint in 16-KiB pages (0 = default)")
	seed := flag.Uint64("seed", 1, "generator seed")
	out := flag.String("out", "-", "output file (- for stdout)")
	list := flag.Bool("list", false, "list available workloads and exit")
	flag.Parse()

	if !(*iops >= 0) {
		fmt.Fprintf(os.Stderr, "tracegen: -iops must be at least 0 (0 = workload default), got %g\n", *iops)
		os.Exit(2)
	}
	if *footprint < 0 {
		fmt.Fprintf(os.Stderr, "tracegen: -footprint must be at least 0 (0 = workload default), got %d\n", *footprint)
		os.Exit(2)
	}

	if *list {
		for _, s := range workload.Table2() {
			fmt.Printf("%-8s read=%.2f cold=%.2f\n", s.Name, s.ReadRatio, s.ColdRatio)
		}
		return
	}

	spec, err := workload.ByName(*name)
	if err != nil {
		log.Fatalf("tracegen: %v", err)
	}
	spec.AvgIOPS = *iops
	spec.FootprintPages = *footprint

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatalf("tracegen: %v", err)
		}
		defer f.Close()
		w = f
	}
	tw := trace.NewWriter(w, spec.Name)
	gen := workload.NewGenerator(spec, *seed)
	for i := 0; i < *n; i++ {
		if err := tw.Write(gen.Next()); err != nil {
			log.Fatalf("tracegen: %v", err)
		}
	}
	if err := tw.Flush(); err != nil {
		log.Fatalf("tracegen: %v", err)
	}
}
