package ftl

import (
	"testing"
	"testing/quick"
)

func smallConfig() Config {
	return Config{
		Dies:              4,
		PlanesPerDie:      2,
		BlocksPerPlane:    16,
		PagesPerBlock:     8,
		GCThresholdBlocks: 3,
	}
}

func newFTL(t *testing.T) *FTL {
	t.Helper()
	f, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestConfigValidation(t *testing.T) {
	bad := smallConfig()
	bad.Dies = 0
	if _, err := New(bad); err == nil {
		t.Error("zero dies should fail")
	}
	bad = smallConfig()
	bad.GCThresholdBlocks = 16
	if _, err := New(bad); err == nil {
		t.Error("threshold ≥ blocks should fail")
	}
	bad = smallConfig()
	bad.GCThresholdBlocks = 0
	if _, err := New(bad); err == nil {
		t.Error("zero threshold should fail")
	}
}

func TestStripeIsStatic(t *testing.T) {
	f := newFTL(t)
	for lpn := int64(0); lpn < 200; lpn++ {
		d1, p1 := f.StripeOf(lpn)
		d2, p2 := f.StripeOf(lpn)
		if d1 != d2 || p1 != p2 {
			t.Fatal("stripe not deterministic")
		}
		if d1 < 0 || d1 >= 4 || p1 < 0 || p1 >= 2 {
			t.Fatalf("stripe out of range: die %d plane %d", d1, p1)
		}
	}
	// Consecutive LPNs spread across dies first (channel-level parallelism).
	d0, _ := f.StripeOf(0)
	d1, _ := f.StripeOf(1)
	if d0 == d1 {
		t.Error("consecutive LPNs should hit different dies")
	}
}

func TestWriteReadBack(t *testing.T) {
	f := newFTL(t)
	ppn, old, err := f.AllocateWrite(100, false)
	if err != nil {
		t.Fatal(err)
	}
	if old.Valid() {
		t.Error("first write should have no old mapping")
	}
	got, ok := f.Lookup(100)
	if !ok || got != ppn {
		t.Errorf("Lookup = %+v, %v; want %+v", got, ok, ppn)
	}
	die, pl := f.StripeOf(100)
	if ppn.Die != die || ppn.Plane != pl {
		t.Errorf("write landed off-stripe: %+v", ppn)
	}
}

func TestOverwriteInvalidatesOld(t *testing.T) {
	f := newFTL(t)
	first, _, _ := f.AllocateWrite(7, false)
	second, old, err := f.AllocateWrite(7, false)
	if err != nil {
		t.Fatal(err)
	}
	if !old.Valid() || old != first {
		t.Errorf("old = %+v, want %+v", old, first)
	}
	if second == first {
		t.Error("overwrite must move the page")
	}
	// Both pages live in the same open block here: one stale + one valid.
	if got := f.BlockValid(first.Die, first.Plane, first.Block); got != 1 {
		t.Errorf("block valid count = %d, want 1 (old page invalidated)", got)
	}
}

func TestPreconditionMapsWithoutWriteAccounting(t *testing.T) {
	f := newFTL(t)
	ppn, err := f.Precondition(55)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := f.Lookup(55); !ok || got != ppn {
		t.Error("preconditioned LPN not mapped")
	}
	if h, g := f.WriteCounts(); h != 0 || g != 0 {
		t.Error("preconditioning must not count as writes")
	}
	if _, err := f.Precondition(55); err == nil {
		t.Error("double precondition should fail")
	}
}

func TestPreconditionedBlocksNotVictims(t *testing.T) {
	f := newFTL(t)
	// Fill a stripe's plane with cold data only.
	die, pl := f.StripeOf(0)
	for lpn := int64(0); lpn < 64; lpn += 8 { // stripe 0's LPNs: 0, 8, 16, …
		d, p := f.StripeOf(lpn)
		if d != die || p != pl {
			continue
		}
		if _, err := f.Precondition(lpn); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, ok := f.Victim(die, pl, nil); ok {
		t.Error("fully valid cold blocks must not be GC victims")
	}
}

func TestVictimPicksFewestValid(t *testing.T) {
	f := newFTL(t)
	die, pl := f.StripeOf(0)
	stride := int64(f.cfg.Dies * f.cfg.PlanesPerDie) // stays on one stripe

	// Fill two blocks worth of pages, then invalidate most of the first
	// block's pages by overwriting.
	var lpns []int64
	for i := int64(0); i < int64(f.cfg.PagesPerBlock*2); i++ {
		lpns = append(lpns, i*stride)
	}
	for _, lpn := range lpns {
		if _, _, err := f.AllocateWrite(lpn, false); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrite the first six LPNs (they live in the first opened block).
	for _, lpn := range lpns[:6] {
		if _, _, err := f.AllocateWrite(lpn, false); err != nil {
			t.Fatal(err)
		}
	}
	block, valids, ok := f.Victim(die, pl, nil)
	if !ok {
		t.Fatal("no victim found")
	}
	if len(valids) != f.cfg.PagesPerBlock-6 {
		t.Errorf("victim has %d valid pages, want %d", len(valids), f.cfg.PagesPerBlock-6)
	}
	if f.BlockValid(die, pl, block) != len(valids) {
		t.Error("victim valid count mismatch")
	}
	// A second call skips the in-flight victim.
	if b2, _, ok2 := f.Victim(die, pl, nil); ok2 && b2 == block {
		t.Error("victim selected twice")
	}
}

func TestGCRelocationAndErase(t *testing.T) {
	f := newFTL(t)
	die, pl := f.StripeOf(0)
	stride := int64(f.cfg.Dies * f.cfg.PlanesPerDie)
	for i := int64(0); i < int64(f.cfg.PagesPerBlock*2); i++ {
		f.AllocateWrite(i*stride, false)
	}
	for i := int64(0); i < 5; i++ {
		f.AllocateWrite(i*stride, false)
	}
	freeBefore := f.FreeBlocks(die, pl)
	block, valids, ok := f.Victim(die, pl, nil)
	if !ok {
		t.Fatal("no victim")
	}
	for _, lpn := range valids {
		if _, _, err := f.AllocateWrite(lpn, true); err != nil {
			t.Fatal(err)
		}
	}
	if f.BlockValid(die, pl, block) != 0 {
		t.Fatal("relocation left valid pages behind")
	}
	f.OnErase(die, pl, block)
	if f.FreeBlocks(die, pl) < freeBefore {
		t.Error("erase did not return the block to the pool")
	}
	if f.BlockErases(die, pl, block) != 1 {
		t.Errorf("erase count = %d, want 1", f.BlockErases(die, pl, block))
	}
	_, gcWrites := f.WriteCounts()
	if gcWrites != int64(len(valids)) {
		t.Errorf("gc writes = %d, want %d", gcWrites, len(valids))
	}
}

func TestOnEraseWithValidPagesPanics(t *testing.T) {
	f := newFTL(t)
	ppn, _, _ := f.AllocateWrite(3, false)
	defer func() {
		if recover() == nil {
			t.Error("expected panic erasing a block with valid data")
		}
	}()
	f.OnErase(ppn.Die, ppn.Plane, ppn.Block)
}

func TestNeedGCThreshold(t *testing.T) {
	f := newFTL(t)
	die, pl := f.StripeOf(0)
	if f.NeedGC(die, pl) {
		t.Error("fresh FTL should not need GC")
	}
	// Consume blocks until the threshold trips.
	stride := int64(f.cfg.Dies * f.cfg.PlanesPerDie)
	lpn := int64(0)
	for !f.NeedGC(die, pl) {
		if _, _, err := f.AllocateWrite(lpn, false); err != nil {
			t.Fatal(err)
		}
		lpn += stride
	}
	if f.FreeBlocks(die, pl) > f.cfg.GCThresholdBlocks {
		t.Errorf("NeedGC tripped at %d free blocks, threshold %d",
			f.FreeBlocks(die, pl), f.cfg.GCThresholdBlocks)
	}
}

func TestWearLevelingPicksLeastWorn(t *testing.T) {
	f := newFTL(t)
	die, pl := f.StripeOf(0)
	stride := int64(f.cfg.Dies * f.cfg.PlanesPerDie)

	// Cycle a small hot set many times so erase counts accumulate, then
	// verify the spread stays tight (allocation always picks the least
	// worn free block).
	const hotSet = 24
	for cycle := 0; cycle < 1200; cycle++ {
		if _, _, err := f.AllocateWrite(int64(cycle%hotSet)*stride, false); err != nil {
			t.Fatal(err)
		}
		// Opportunistic GC keeps the pool healthy.
		for f.NeedGC(die, pl) {
			block, valids, ok := f.Victim(die, pl, nil)
			if !ok {
				break
			}
			for _, v := range valids {
				if _, _, err := f.AllocateWrite(v, true); err != nil {
					t.Fatal(err)
				}
			}
			f.OnErase(die, pl, block)
		}
	}
	// Greedy GC legitimately pins a few blocks holding the stable valid
	// pages of the hot set; among the blocks that do participate in the
	// erase rotation, wear-aware allocation must keep the spread tight.
	var erased []int
	pinned := 0
	for b := 0; b < f.cfg.BlocksPerPlane; b++ {
		if e := f.BlockErases(die, pl, b); e > 0 {
			erased = append(erased, e)
		} else {
			pinned++
		}
	}
	if pinned > 6 {
		t.Errorf("%d blocks never erased; rotation too narrow", pinned)
	}
	min, max := 1<<30, 0
	for _, e := range erased {
		if e < min {
			min = e
		}
		if e > max {
			max = e
		}
	}
	if len(erased) == 0 {
		t.Fatal("no block was ever erased")
	}
	if max-min > max/2+2 {
		t.Errorf("wear spread %d..%d too wide among rotating blocks", min, max)
	}
}

func TestWriteAmplification(t *testing.T) {
	f := newFTL(t)
	if f.WriteAmplification() != 1 {
		t.Error("WA with no writes should be 1")
	}
	f.AllocateWrite(1, false)
	f.AllocateWrite(2, true)
	if wa := f.WriteAmplification(); wa != 2 {
		t.Errorf("WA = %v, want 2", wa)
	}
}

func TestPlaneExhaustionReportsError(t *testing.T) {
	cfg := smallConfig()
	cfg.Dies = 1
	cfg.PlanesPerDie = 1
	cfg.BlocksPerPlane = 2
	cfg.PagesPerBlock = 2
	cfg.GCThresholdBlocks = 1
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sawErr bool
	for lpn := int64(0); lpn < 10; lpn++ {
		if _, _, err := f.AllocateWrite(lpn, false); err != nil {
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Error("expected exhaustion error writing past capacity")
	}
}

func TestMappingInvariantProperty(t *testing.T) {
	// Property: after arbitrary write sequences, every mapped LPN's PPN
	// resolves back to that LPN (no two LPNs share a physical page).
	f := func(writes []uint8) bool {
		cfg := smallConfig()
		cfg.BlocksPerPlane = 32
		ftl, err := New(cfg)
		if err != nil {
			return false
		}
		seen := map[PPN]int64{}
		for _, w := range writes {
			lpn := int64(w % 64)
			ppn, old, err := ftl.AllocateWrite(lpn, false)
			if err != nil {
				return true // plane exhaustion is legal under random load
			}
			if old.Valid() {
				delete(seen, old)
			}
			if other, dup := seen[ppn]; dup && other != lpn {
				return false
			}
			seen[ppn] = lpn
		}
		for ppn, lpn := range seen {
			got, ok := ftl.Lookup(lpn)
			if !ok || got != ppn {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestInvalidPPN(t *testing.T) {
	if InvalidPPN.Valid() {
		t.Error("InvalidPPN should not be valid")
	}
	if (PPN{}).Valid() != true {
		t.Error("zero PPN refers to die 0 and is valid")
	}
}

func TestLPNOutsideLogicalSpaceRejected(t *testing.T) {
	f, err := New(Config{Dies: 2, PlanesPerDie: 2, BlocksPerPlane: 4, PagesPerBlock: 8, GCThresholdBlocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	max := int64(2 * 2 * 4 * 8)
	for _, lpn := range []int64{-1, max, max + 1, 1 << 40} {
		if _, err := f.Precondition(lpn); err == nil {
			t.Errorf("Precondition(%d) accepted an LPN outside [0, %d)", lpn, max)
		}
		if _, _, err := f.AllocateWrite(lpn, false); err == nil {
			t.Errorf("AllocateWrite(%d) accepted an LPN outside [0, %d)", lpn, max)
		}
	}
	// The boundary LPN itself is valid.
	if _, err := f.Precondition(max - 1); err != nil {
		t.Fatalf("Precondition(%d): %v", max-1, err)
	}
	if _, ok := f.Lookup(1 << 40); ok {
		t.Error("Lookup of a huge LPN should miss, not grow the table")
	}
}
