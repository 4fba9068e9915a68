// The repository-level differential test of PR 3's condition-resident read
// fast path: the entire default Figure 14 evaluation grid — twelve
// workloads × ten (PEC, retention) conditions × five controller schemes —
// is swept once through the fast path (precomputed error-model profiles,
// memoized plans, pooled executor) and once through the preserved pre-PR
// reference path, and the results must match bit for bit: every cell
// DeepEqual, every streamed CSV byte identical.
package readretry_test

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"readretry"
)

func runDiffSweep(t *testing.T, disableFastPath bool) (*readretry.SweepResult, []byte) {
	t.Helper()
	cfg := readretry.DefaultSweepConfig()
	cfg.Base.DisableReadFastPath = disableFastPath
	var buf bytes.Buffer
	sink, err := readretry.NewSweepCSVSinkFor(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sink = sink
	res, err := readretry.RunSweep(context.Background(), cfg, readretry.Figure14Variants())
	if err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

func TestFastPathFullGridBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full default Figure 14 grid × 2 paths; skipped in -short")
	}
	fast, fastCSV := runDiffSweep(t, false)
	slow, slowCSV := runDiffSweep(t, true)

	if len(fast.Cells) != len(slow.Cells) || len(fast.Cells) == 0 {
		t.Fatalf("grid sizes differ: fast %d, slow %d", len(fast.Cells), len(slow.Cells))
	}
	for i := range fast.Cells {
		if !reflect.DeepEqual(fast.Cells[i], slow.Cells[i]) {
			t.Errorf("cell %d (%s %v %s): fast %+v, slow %+v",
				i, fast.Cells[i].Workload, fast.Cells[i].Cond, fast.Cells[i].Config,
				fast.Cells[i], slow.Cells[i])
			if i > 3 {
				t.FailNow() // enough divergence reported
			}
		}
	}
	if !reflect.DeepEqual(fast, slow) {
		t.Fatal("sweep results differ beyond cells")
	}
	if !bytes.Equal(fastCSV, slowCSV) {
		t.Fatal("streamed CSV bytes differ between fast and reference paths")
	}
	if len(fastCSV) == 0 {
		t.Fatal("differential sweep produced no CSV output")
	}
}
