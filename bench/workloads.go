package main

import (
	"fmt"
	"math/rand"

	"readretry/internal/experiments"
	"readretry/internal/ssd"
)

// benchWorkload is one input set the benchmark runs. Each one stresses a
// different layer (see README.md for why each was chosen); a later change
// that speeds one up must show the others did not slow down.
type benchWorkload struct {
	Name string
	// Grid is the workload's sweep in canonical order. Runs permute its
	// axes by seed (permuted), which changes the order cells are scheduled
	// and emitted in but never a cell's measurement.
	Grid func() experiments.Config
	// Expected is the repository-relative CSV every pass's output must
	// match row for row.
	Expected string
	// Coord runs the grid through a coordinator and HTTP workers instead
	// of one in-process sweep.
	Coord bool
	// TraceStride selects the traced run's cells: every TraceStride-th
	// canonical cell. It is coprime with the five variants, so every
	// variant is traced.
	TraceStride int
}

// coordShards is how many shards the coord workload's grid is split into.
const coordShards = 48

var workloads = []benchWorkload{
	{
		// The paper's Figure 14 TLC grid: 12 workloads × 10 conditions × 5
		// variants × 2500 requests, the repository's behaviour contract.
		Name:        "fig14",
		Grid:        experiments.DefaultConfig,
		Expected:    "testdata/golden_fig14_tlc.csv",
		TraceStride: 3,
	},
	{
		// Read-dominant traces at the oldest condition on TLC and QLC: deep
		// retry ladders over long traces, so the event engine and the read
		// path dominate, not set-up.
		Name: "retry-deep",
		Grid: func() experiments.Config {
			cfg := experiments.DefaultConfig()
			cfg.Workloads = []string{"YCSB-C", "mds_1"}
			cfg.Conditions = []experiments.Condition{{PEC: 2000, Months: 12}}
			cfg.Devices = []ssd.Device{ssd.DeviceTLC, ssd.DeviceQLC16}
			cfg.Requests = 40000
			return cfg
		},
		Expected:    "bench/expected/retry-deep.csv",
		TraceStride: 1,
	},
	{
		// Write-heavy traces on a small device: garbage collection and
		// read-priority suspension beside the reads.
		Name: "write-gc",
		Grid: func() experiments.Config {
			cfg := experiments.DefaultConfig()
			cfg.Base = smallDevice()
			cfg.Workloads = []string{"stg_0", "hm_0"}
			cfg.Conditions = []experiments.Condition{{PEC: 1000, Months: 3}, {PEC: 2000, Months: 6}}
			cfg.Requests = 40000
			return cfg
		},
		Expected:    "bench/expected/write-gc.csv",
		TraceStride: 1,
	},
	{
		// Many cheap cells through the coordinator, shards and cell cache,
		// the only workload where the distribution layers do real work.
		Name: "coord",
		Grid: func() experiments.Config {
			cfg := experiments.DefaultConfig()
			cfg.Base = smallDevice()
			cfg.Temps = []float64{25, 85}
			cfg.Requests = 300
			return cfg
		},
		Expected:    "bench/expected/coord.csv",
		Coord:       true,
		TraceStride: 3,
	},
}

// smallDevice is the repository benchmarks' small device: few blocks per
// plane and a high fill, so write streams reach garbage collection within
// a short trace.
func smallDevice() ssd.Config {
	cfg := ssd.ExperimentConfig()
	cfg.Geometry.BlocksPerPlane = 24
	cfg.Geometry.PagesPerBlock = 48
	cfg.GCThresholdBlocks = 3
	cfg.PreconditionPages = cfg.TotalPages() * 7 / 10
	return cfg
}

func workloadByName(name string) (benchWorkload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// permuted returns the workload's grid with every axis shuffled by seed:
// the run's input. A cell's measurement depends only on its coordinates,
// so every seed yields the same set of output rows in a different order.
func (w benchWorkload) permuted(seed uint64) experiments.Config {
	cfg := w.Grid()
	r := rand.New(rand.NewSource(int64(seed)))
	cfg.Workloads = shuffled(r, cfg.Workloads)
	cfg.Conditions = shuffled(r, cfg.Conditions)
	cfg.Temps = shuffled(r, cfg.Temps)
	cfg.Devices = shuffled(r, cfg.Devices)
	return cfg
}

func shuffled[T any](r *rand.Rand, xs []T) []T {
	if xs == nil {
		return nil
	}
	out := append([]T(nil), xs...)
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
