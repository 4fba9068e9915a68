package ssd

import (
	"testing"

	"readretry/internal/sim"
	"readretry/internal/trace"
	"readretry/internal/vth"
	"readretry/internal/workload"
)

// readCondition returns the condition a read of lpn runs under now, and
// the erase count of the block that holds it.
func (s *SSD) readCondition(t *testing.T, lpn int64) (vth.Condition, int) {
	t.Helper()
	ppn, ok := s.flash.Lookup(lpn)
	if !ok {
		t.Fatalf("LPN %d is not mapped", lpn)
	}
	erases, _ := s.flash.BlockWear(ppn.Die, ppn.Plane, ppn.Block)
	return s.blockCondition(ppn), erases
}

// TestBlockLifeRule pins where a read's (P/E, retention) condition comes
// from. On a one-plane device preconditioned to two full image blocks at
// (1000 P/E, 6 months):
//   - an image block reads at (1000, 6);
//   - a block the cold slot opened past the image, for reads of LPNs no
//     one wrote, reads at (1000, 6) too, and keeps that age after one of
//     its pages is overwritten;
//   - a block programmed in the run reads at (1000, 0);
//   - a block that GC erased once reads at (1001, 0).
//
// GC soon relocates the in-run block, so the erased block is checked on a
// second device whose trace runs on until GC has erased blocks.
func TestBlockLifeRule(t *testing.T) {
	aged := vth.Condition{PEC: 1000, RetentionMonths: 6, TempC: 30}
	fresh := vth.Condition{PEC: 1000, TempC: 30}
	check := func(dev *SSD, name string, lpn int64, want vth.Condition, wantErases int) {
		t.Helper()
		if got, erases := dev.readCondition(t, lpn); got != want || erases != wantErases {
			t.Errorf("%s (LPN %d): condition %#v after %d erases, want %#v after %d",
				name, lpn, got, erases, want, wantErases)
		}
	}
	young := blockLifeDevice(t, 0)
	check(young, "image block", 0, aged, 0)
	check(young, "cold-slot block past the image", 12, aged, 0)
	check(young, "cold-slot block with a page invalidated", 14, aged, 0)
	check(young, "block programmed in the run", 13, fresh, 0)

	worn := blockLifeDevice(t, 40)
	check(worn, "image block", 0, aged, 0)
	check(worn, "cold-slot block with a page invalidated", 14, aged, 0)
	check(worn, "block after one GC erase", 30, vth.Condition{PEC: 1001, TempC: 30}, 1)
}

// blockLifeDevice runs TestBlockLifeRule's trace on a fresh device: a read
// of an image LPN, reads of three LPNs past the image (the cold slot maps
// them into a block of its own), a write of one of those three, the given
// number of overwrites of four other LPNs, and a last write of LPN 30.
func blockLifeDevice(t *testing.T, overwrites int) *SSD {
	t.Helper()
	cfg := ExperimentConfig()
	cfg.Channels, cfg.DiesPerChannel = 1, 1
	cfg.Geometry.PlanesPerDie = 1
	cfg.Geometry.BlocksPerPlane = 8
	cfg.Geometry.PagesPerBlock = 6
	cfg.GCThresholdBlocks = 2
	cfg.PEC, cfg.RetentionMonths, cfg.TempC = 1000, 6, 30
	cfg.PreconditionPages = 12 // image blocks 0 and 1, both full
	dev, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var recs []trace.Record
	add := func(lpn int64, write bool) {
		at := sim.Time(len(recs)+1) * sim.Millisecond
		recs = append(recs, trace.Record{Arrival: at, Offset: lpn * workload.PageSize, Size: workload.PageSize, Write: write})
	}
	add(0, false)
	for lpn := int64(12); lpn < 15; lpn++ {
		add(lpn, false)
	}
	add(13, true)
	for i := 0; i < overwrites; i++ {
		add(20+int64(i%4), true)
	}
	add(30, true)
	if _, err := dev.Run(recs); err != nil {
		t.Fatal(err)
	}
	return dev
}
