package main

import (
	"os"
	"runtime/debug"
	"testing"

	"readretry/internal/experiments"
)

// openFDs counts this process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count open files: %v", err)
	}
	return len(ents)
}

// TestFailedSweepClosesCSVFiles: a sweep that fails after -csv opened
// <fig>.csv and <fig>.metrics.csv (here a grid the engine rejects) must
// still close both. GC is off so finalizers cannot close them instead.
func TestFailedSweepClosesCSVFiles(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	oldDir, oldMetrics, oldProgress := *csvDir, *retryMetrics, *progress
	*csvDir, *retryMetrics, *progress = t.TempDir(), true, false
	defer func() { *csvDir, *retryMetrics, *progress = oldDir, oldMetrics, oldProgress }()

	cfg, figs := tinySweep(nil)
	cfg.Conditions = []experiments.Condition{{PEC: -1}}
	before := openFDs(t)
	if _, err := runSweepFigure("bad", cfg, figs[0].variants); err == nil {
		t.Fatal("sweep over PEC -1 succeeded")
	}
	if after := openFDs(t); after != before {
		t.Fatalf("%d fds before, %d after a failed sweep", before, after)
	}
}
