// Command ssdsim runs one SSD simulation: a Table 2 workload (or an MSR
// trace file) against a chosen read-retry configuration and operating
// condition, printing the response-time statistics.
//
// Usage:
//
//	ssdsim -workload YCSB-C -scheme PnAR2 -pec 2000 -months 6
//	ssdsim -trace mytrace.csv -scheme Baseline
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"readretry/internal/core"
	"readretry/internal/ssd"
	"readretry/internal/trace"
	"readretry/internal/workload"
)

func main() {
	name := flag.String("workload", "YCSB-C", "Table 2 workload name")
	traceFile := flag.String("trace", "", "MSR-format trace file (overrides -workload)")
	schemeName := flag.String("scheme", "Baseline", "Baseline, PR2, AR2, PnAR2, or NoRR")
	usePSO := flag.Bool("pso", false, "layer the PSO step-reduction baseline (§7.3)")
	retryMetrics := flag.Bool("retry-metrics", false, "collect per-block retry accounting and append it to the report (observational only)")
	useHistory := flag.Bool("history", false, "seed each block's retry-ladder start from its last successful retry outcome")
	pec := flag.Int("pec", 1000, "preconditioned P/E cycles")
	months := flag.Float64("months", 6, "preconditioned retention age (months)")
	temp := flag.Float64("temp", 30, "operating temperature (°C)")
	requests := flag.Int("requests", 5000, "requests to replay (workload mode)")
	iops := flag.Float64("iops", 1200, "average arrival rate")
	fullSize := flag.Bool("fullsize", false, "use the paper's 512-GiB geometry instead of the scaled one")
	seed := flag.Uint64("seed", 7, "seed for workload and process variation")
	flag.Parse()

	if *requests < 0 {
		fmt.Fprintf(os.Stderr, "ssdsim: -requests must be at least 0, got %d\n", *requests)
		os.Exit(2)
	}
	if !(*iops >= 0) {
		fmt.Fprintf(os.Stderr, "ssdsim: -iops must be at least 0 (0 = workload default), got %g\n", *iops)
		os.Exit(2)
	}

	scheme, err := core.ParseScheme(*schemeName)
	if err != nil {
		log.Fatalf("ssdsim: %v", err)
	}
	cfg := ssd.ExperimentConfig()
	if *fullSize {
		cfg = ssd.DefaultConfig()
	}
	cfg.Scheme = scheme
	cfg.UsePSO = *usePSO
	cfg.PEC = *pec
	cfg.RetentionMonths = *months
	cfg.TempC = *temp
	cfg.Seed = *seed
	cfg.RetryMetrics = *retryMetrics
	cfg.UseRetryHistory = *useHistory
	if err := cfg.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "ssdsim: %v\n", err)
		os.Exit(2)
	}

	var recs []trace.Record
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			log.Fatalf("ssdsim: %v", err)
		}
		defer f.Close()
		recs, err = trace.NewReader(f).ReadAll()
		if err != nil {
			log.Fatalf("ssdsim: %v", err)
		}
	} else {
		spec, err := workload.ByName(*name)
		if err != nil {
			log.Fatalf("ssdsim: %v", err)
		}
		spec.FootprintPages = cfg.TotalPages() * 6 / 10
		spec.AvgIOPS = *iops
		recs = workload.NewGenerator(spec, *seed).Generate(*requests)
	}

	dev, err := ssd.New(cfg)
	if err != nil {
		log.Fatalf("ssdsim: %v", err)
	}
	st, err := dev.Run(recs)
	if err != nil {
		log.Fatalf("ssdsim: %v", err)
	}

	fmt.Printf("configuration   : %v", scheme)
	if *usePSO {
		fmt.Print(" + PSO")
	}
	if *useHistory {
		fmt.Print(" + history")
	}
	fmt.Printf("  @ (%gK P/E, %gmo, %g°C)\n", float64(*pec)/1000, *months, *temp)
	st.WriteReport(os.Stdout)
}
