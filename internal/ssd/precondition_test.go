package ssd

import (
	"math"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"readretry/internal/core"
	"readretry/internal/trace"
	"readretry/internal/workload"
)

// imageTrace is a write-heavy stream whose footprint reaches past the
// preconditioned range, so devices append to their image's open cold
// blocks, write fresh blocks and collect preconditioned ones.
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

// TestParallelDevicesShareOneImage builds and runs several devices at once,
// each deriving the same preconditioned state. Under -race this proves the
// devices share nothing they write; the equality checks prove every device
// behaved like the first one, built and run alone.
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

// TestFirstNewAllocations pins the per-cell set-up cost against the page
// count: a device derives its preconditioned state instead of mapping it
// page by page, so the first ssd.New of an experiment-scale device in a
// fresh process allocates its block metadata and table index, about
// 0.11 MB, and no more with 70% of the device preconditioned than with
// none. It measures in a child process, where no earlier New ran.
func TestFirstNewAllocations(t *testing.T) {
	if os.Getenv(firstNewChild) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestFirstNewAllocations$", "-test.v")
		cmd.Env = append(os.Environ(), firstNewChild+"=1")
		out, err := cmd.CombinedOutput()
		if err != nil || !strings.Contains(string(out), "--- PASS") {
			t.Fatalf("child process: %v\n%s", err, out)
		}
		t.Logf("child process:\n%s", out)
		return
	}
	allocated := func(pages int64) uint64 {
		cfg := ExperimentConfig()
		cfg.PreconditionPages = pages
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		dev, err := New(cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(dev)
		return after.TotalAlloc - before.TotalAlloc
	}
	cfg := ExperimentConfig()
	first := allocated(cfg.PreconditionPages)
	empty := allocated(0)
	t.Logf("first New with %d pages preconditioned allocated %d bytes; with none, %d",
		cfg.PreconditionPages, first, empty)
	const limit = 0.25e6
	if first > limit {
		t.Errorf("first ssd.New allocated %.3f MB, want ≤ %.2f MB", float64(first)/1e6, limit/1e6)
	}
	if d := math.Abs(float64(first) - float64(empty)); d > 0.1*float64(empty) {
		t.Errorf("preconditioning 70%% of the device changed New's allocation from %d to %d bytes, more than 10%%", empty, first)
	}
}

// firstNewChild marks the child process TestFirstNewAllocations runs.
const firstNewChild = "SSD_TEST_FIRST_NEW_CHILD"
