package ssd

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"readretry/internal/core"
	"readretry/internal/trace"
	"readretry/internal/workload"
)

// imageTrace is a write-heavy stream whose footprint reaches past the
// preconditioned range, so devices built off one image append to its
// shared cold blocks, write fresh blocks and collect preconditioned ones.
func imageTrace(t *testing.T, cfg Config, nreq int) []trace.Record {
	t.Helper()
	spec, err := workload.ByName("stg_0")
	if err != nil {
		t.Fatal(err)
	}
	spec.FootprintPages = cfg.TotalPages() * 6 / 10
	spec.AvgIOPS = 4000
	return workload.NewGenerator(spec, 11).Generate(nreq)
}

// TestParallelDevicesShareOneImage builds and runs several devices at once
// off one memoized precondition image. Under -race this proves clones never
// write what they share; the equality checks prove every device behaved
// like the first one, built before any other clone existed.
func TestParallelDevicesShareOneImage(t *testing.T) {
	cfg := tinyConfig()
	cfg.Geometry.BlocksPerPlane = 12
	cfg.PreconditionPages = cfg.TotalPages() * 5 / 10
	cfg.Scheme = core.PnAR2
	cfg.PEC, cfg.RetentionMonths = 1000, 3
	recs := imageTrace(t, cfg, 3000)
	first := runOnce(t, cfg, recs)
	if first.GCJobs == 0 {
		t.Fatal("trace ran no garbage collection; the test would not reach the shared blocks")
	}

	const devices = 4
	stats := make([]*Stats, devices)
	errs := make([]error, devices)
	var wg sync.WaitGroup
	for i := 0; i < devices; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dev, err := New(cfg)
			if err != nil {
				errs[i] = err
				return
			}
			stats[i], errs[i] = dev.Run(recs)
		}(i)
	}
	wg.Wait()
	for i := 0; i < devices; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(first, stats[i]) {
			t.Fatalf("device %d diverged from the first device built off the image", i)
		}
	}
}

func runOnce(t *testing.T, cfg Config, recs []trace.Record) *Stats {
	t.Helper()
	dev, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := dev.Run(recs)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestRunTwiceFails pins the run-once contract: a device replays one trace,
// and a second Run reports an error instead of replaying into a used
// device.
func TestRunTwiceFails(t *testing.T) {
	cfg := tinyConfig()
	recs := imageTrace(t, cfg, 50)
	dev, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, err := dev.Run(recs)
	if err != nil {
		t.Fatal(err)
	}
	completed := first.Completed
	if _, err := dev.Run(recs); err == nil {
		t.Fatal("second Run on the same device succeeded")
	}
	if first.Completed != completed {
		t.Fatal("the refused Run changed the first run's statistics")
	}
}

// TestWarmNewAllocations guards the per-cell set-up cost: with its
// precondition image memoized, building an experiment-scale device copies
// the image's table chunk pointers and block metadata but re-maps nothing,
// and shares the table chunks themselves until the device writes them. The
// bound sits about 2x above the ~220 KB that costs, far below the 6.6 MB a
// copy of the whole table would add and the ~24 MB a full preconditioning
// allocates.
func TestWarmNewAllocations(t *testing.T) {
	cfg := ExperimentConfig()
	if _, err := New(cfg); err != nil { // builds the image
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	dev, err := New(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(dev)
	const limit = 0.5e6
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Fatalf("warm ssd.New allocated %.2f MB, want ≤ %.2f MB", float64(got)/1e6, limit/1e6)
	}
}
