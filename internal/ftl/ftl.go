// Package ftl implements the flash-translation-layer bookkeeping the SSD
// simulator drives: page-level logical→physical mapping, per-plane write
// allocation with wear-aware free-block selection, valid-page tracking, and
// greedy garbage-collection victim selection.
//
// The package is purely a data structure — it decides *where* data lives
// and *which* block to collect; the simulator (internal/ssd) turns those
// decisions into timed die operations. Keeping the FTL synchronous makes
// its invariants directly testable.
package ftl

import (
	"fmt"
	"slices"
)

// PPN is a physical page number: a die-global physical location.
type PPN struct {
	Die   int // global die index across all channels
	Plane int
	Block int // block within the plane
	Page  int // page within the block
}

// InvalidPPN marks an unmapped logical page.
var InvalidPPN = PPN{Die: -1}

// Valid reports whether the PPN refers to a physical location.
func (p PPN) Valid() bool { return p.Die >= 0 }

// Config sizes the FTL.
type Config struct {
	Dies           int // total dies (channels × dies per channel)
	PlanesPerDie   int
	BlocksPerPlane int
	PagesPerBlock  int
	// GCThresholdBlocks triggers collection when a plane's free-block
	// count drops to or below it.
	GCThresholdBlocks int
}

// Packed-PPN field widths used by the mapping table. Generous for any
// realistic device (4096 dies × 64 planes × 16M blocks × 1M pages) while
// fitting one table entry, with its valid bit, in a uint64.
const (
	ppnPageBits  = 20
	ppnBlockBits = 24
	ppnPlaneBits = 6
	ppnDieBits   = 12
	ppnValidBit  = uint64(1) << 63
)

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Dies < 1 || c.PlanesPerDie < 1 || c.BlocksPerPlane < 2 || c.PagesPerBlock < 1 {
		return fmt.Errorf("ftl: invalid geometry %+v", c)
	}
	if c.GCThresholdBlocks < 1 || c.GCThresholdBlocks >= c.BlocksPerPlane {
		return fmt.Errorf("ftl: GC threshold %d outside (0, %d)", c.GCThresholdBlocks, c.BlocksPerPlane)
	}
	if c.Dies > 1<<ppnDieBits || c.PlanesPerDie > 1<<ppnPlaneBits ||
		c.BlocksPerPlane > 1<<ppnBlockBits || c.PagesPerBlock > 1<<ppnPageBits {
		return fmt.Errorf("ftl: geometry %+v exceeds packed-PPN field widths", c)
	}
	return nil
}

// blockMeta tracks one physical block.
type blockMeta struct {
	// state is free, open (actively written), or closed.
	state    blockState
	writePtr int // next page to program (for open blocks)
	valid    int // count of valid pages
	// lpns is the reverse map: page → LPN it was written for. Only pages
	// below writePtr are meaningful; the block keeps the map across erases
	// (OnErase, popFree), so entries past writePtr are a former life's.
	lpns      []int64
	erases    int  // P/E cycles (wear)
	cold      bool // preconditioned cold block (never victimized while fully valid)
	collected bool // currently being garbage-collected
	// shared marks lpns as aliased by a frozen image and its clones (see
	// Freeze); the block copies it before its first append.
	shared bool
}

type blockState uint8

const (
	blockFree blockState = iota
	blockOpen
	blockClosed
)

// plane is the allocation domain: the free-block count, the active (open)
// block for host/GC writes, and the preconditioning cold block.
type plane struct {
	active    int // open block for writes, −1 if none
	coldOpen  int // open block for preconditioned cold fill, −1 if none
	freeCount int
}

// pageTable is the LPN → PPN map. Logical page numbers are dense (workloads
// address a contiguous footprint), so the table is a chunked slice of packed
// PPNs indexed by LPN rather than a hash map: lookups are a bounds check, a
// shift and a mask, inserts never rehash, and a preconditioned
// experiment-scale device costs ~8 bytes per page instead of a
// multi-hundred-megabyte map churn (map fill and rehash used to dominate
// ssd.New, ~60 % of a sweep cell's total CPU). The chunks are what a frozen
// image shares with its clones: a clone copies the chunk pointers, and a
// chunk itself only on its first write, so a cell that writes a few hundred
// pages copies a few chunks of the image's table, not all of it.
type pageTable struct {
	chunks []*[chunkLen]uint64 // packed PPN | ppnValidBit; zero means unmapped
	// shared marks chunks aliased by a frozen image and its clones (see
	// Freeze); set copies such a chunk before its first write.
	shared []bool
	count  int
}

// A table chunk holds chunkLen = 512 entries, 4 KiB: small enough that a
// cell's scattered writes copy little of a shared table, large enough that
// the chunk pointers a clone copies stay a fraction of the entries.
const (
	chunkShift = 9
	chunkLen   = 1 << chunkShift
)

func packPPN(p PPN) uint64 {
	return ppnValidBit |
		uint64(p.Die)<<(ppnPageBits+ppnBlockBits+ppnPlaneBits) |
		uint64(p.Plane)<<(ppnPageBits+ppnBlockBits) |
		uint64(p.Block)<<ppnPageBits |
		uint64(p.Page)
}

func unpackPPN(e uint64) PPN {
	return PPN{
		Die:   int(e >> (ppnPageBits + ppnBlockBits + ppnPlaneBits) & (1<<ppnDieBits - 1)),
		Plane: int(e >> (ppnPageBits + ppnBlockBits) & (1<<ppnPlaneBits - 1)),
		Block: int(e >> ppnPageBits & (1<<ppnBlockBits - 1)),
		Page:  int(e & (1<<ppnPageBits - 1)),
	}
}

// at returns lpn's packed entry, or 0 for an LPN outside the table or in
// a chunk never written.
func (t *pageTable) at(lpn int64) uint64 {
	if lpn < 0 || lpn>>chunkShift >= int64(len(t.chunks)) {
		return 0
	}
	c := t.chunks[lpn>>chunkShift]
	if c == nil {
		return 0
	}
	return c[lpn&(chunkLen-1)]
}

func (t *pageTable) get(lpn int64) (PPN, bool) {
	e := t.at(lpn)
	if e&ppnValidBit == 0 {
		return InvalidPPN, false
	}
	return unpackPPN(e), true
}

// mapsTo reports whether lpn is mapped to exactly p. A physical page is
// valid iff the LPN it was written for still maps to it, so this is the
// validity test GC uses.
func (t *pageTable) mapsTo(lpn int64, p PPN) bool {
	return t.at(lpn) == packPPN(p)
}

// set maps lpn to p, growing the table to lpn's chunk and giving that chunk
// its own copy if it is missing or shared.
func (t *pageTable) set(lpn int64, p PPN) {
	if lpn < 0 {
		panic(fmt.Sprintf("ftl: negative LPN %d", lpn))
	}
	i := int(lpn >> chunkShift)
	if grow := i + 1 - len(t.chunks); grow > 0 {
		t.chunks = append(t.chunks, make([]*[chunkLen]uint64, grow)...)
		t.shared = append(t.shared, make([]bool, grow)...)
	}
	if c := t.chunks[i]; c == nil || t.shared[i] {
		own := new([chunkLen]uint64)
		if c != nil {
			*own = *c
		}
		t.chunks[i], t.shared[i] = own, false
	}
	e := &t.chunks[i][lpn&(chunkLen-1)]
	if *e&ppnValidBit == 0 {
		t.count++
	}
	*e = packPPN(p)
}

// FTL is the translation layer state.
type FTL struct {
	cfg    Config
	table  pageTable     // LPN → PPN
	blocks [][]blockMeta // [globalPlane][block]
	planes []plane
	// maxLPN bounds the logical address space to the device's physical page
	// count: the chunked table grows to the largest LPN seen, so an
	// out-of-range LPN must be rejected up front rather than allocating an
	// arbitrarily large table.
	maxLPN int64

	hostWrites int64
	gcWrites   int64
	// frozen marks an immutable image (Freeze): only Clone and the read
	// accessors may use it.
	frozen bool
}

// New builds an FTL with every block free.
func New(cfg Config) (*FTL, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nPlanes := cfg.Dies * cfg.PlanesPerDie
	f := &FTL{
		cfg:    cfg,
		blocks: make([][]blockMeta, nPlanes),
		planes: make([]plane, nPlanes),
		maxLPN: int64(cfg.Dies) * int64(cfg.PlanesPerDie) *
			int64(cfg.BlocksPerPlane) * int64(cfg.PagesPerBlock),
	}
	for p := range f.blocks {
		f.blocks[p] = make([]blockMeta, cfg.BlocksPerPlane)
		f.planes[p].active = -1
		f.planes[p].coldOpen = -1
		f.planes[p].freeCount = cfg.BlocksPerPlane
	}
	return f, nil
}

// Freeze turns f into an immutable image for Clone: every later mutation
// of f panics. It marks every table chunk and every block's reverse map as
// shared, so clones copy each on their first write to it instead of up
// front.
func (f *FTL) Freeze() {
	for i := range f.table.shared {
		f.table.shared[i] = true
	}
	for _, blocks := range f.blocks {
		for b := range blocks {
			blocks[b].shared = blocks[b].lpns != nil
		}
	}
	f.frozen = true
}

// Clone returns an FTL in the state of the frozen image f, which evolves
// independently of f and of every other clone. It copies the table's chunk
// pointers and the block metadata; table chunks and reverse maps stay
// shared until a clone writes to them. Clone only reads f, so any number
// of goroutines may clone one image at once. It panics unless f is frozen.
func (f *FTL) Clone() *FTL {
	if !f.frozen {
		panic("ftl: Clone of an FTL that is not frozen")
	}
	c := *f
	c.frozen = false
	c.table.chunks = slices.Clone(f.table.chunks)
	c.table.shared = slices.Clone(f.table.shared)
	c.blocks = make([][]blockMeta, len(f.blocks))
	c.planes = slices.Clone(f.planes)
	for p := range f.blocks {
		c.blocks[p] = slices.Clone(f.blocks[p])
	}
	return &c
}

// mutate guards every state change: a frozen image is shared by its clones.
func (f *FTL) mutate() {
	if f.frozen {
		panic("ftl: mutating a frozen image")
	}
}

// Config returns the FTL's configuration.
func (f *FTL) Config() Config { return f.cfg }

// planeIndex flattens (die, plane).
func (f *FTL) planeIndex(die, pl int) int { return die*f.cfg.PlanesPerDie + pl }

// StripeOf returns the (die, plane) a logical page is statically allocated
// to: LPNs stripe channel-first across dies, then across planes, the CWDP
// allocation MQSim models.
func (f *FTL) StripeOf(lpn int64) (die, pl int) {
	die = int(lpn % int64(f.cfg.Dies))
	pl = int(lpn / int64(f.cfg.Dies) % int64(f.cfg.PlanesPerDie))
	return die, pl
}

// Lookup returns the physical location of a logical page.
func (f *FTL) Lookup(lpn int64) (PPN, bool) {
	return f.table.get(lpn)
}

// Mapped returns the number of mapped logical pages.
func (f *FTL) Mapped() int { return f.table.count }

// FreeBlocks returns the free-block count of a plane.
func (f *FTL) FreeBlocks(die, pl int) int { return f.planes[f.planeIndex(die, pl)].freeCount }

// popFree opens the least-worn free block of a plane (wear leveling),
// breaking ties by the lowest block index for determinism. It returns −1
// when the plane is exhausted — a catastrophic condition the simulator
// treats as a configuration error (overprovisioning too small for the
// workload).
func (f *FTL) popFree(pi int) int {
	blocks := f.blocks[pi]
	best := -1
	for b := range blocks {
		if blocks[b].state == blockFree && (best < 0 || blocks[b].erases < blocks[best].erases) {
			best = b
		}
	}
	if best < 0 {
		return -1
	}
	f.planes[pi].freeCount--
	old := &blocks[best]
	lpns := old.lpns
	if lpns == nil {
		lpns = make([]int64, f.cfg.PagesPerBlock)
	}
	*old = blockMeta{state: blockOpen, erases: old.erases, lpns: lpns, shared: old.shared}
	return best
}

// Precondition maps a logical page that existed before the simulation
// started (cold data): it is placed in the plane's preconditioning block
// without consuming simulated time. The caller must not precondition an
// already mapped LPN.
func (f *FTL) Precondition(lpn int64) (PPN, error) {
	f.mutate()
	if lpn < 0 || lpn >= f.maxLPN {
		return InvalidPPN, fmt.Errorf("ftl: LPN %d outside logical space [0, %d)", lpn, f.maxLPN)
	}
	if _, ok := f.table.get(lpn); ok {
		return InvalidPPN, fmt.Errorf("ftl: LPN %d already mapped", lpn)
	}
	die, pl := f.StripeOf(lpn)
	pi := f.planeIndex(die, pl)
	ppn, err := f.appendTo(pi, &f.planes[pi].coldOpen, die, pl, lpn, true)
	if err != nil {
		return InvalidPPN, err
	}
	f.table.set(lpn, ppn)
	return ppn, nil
}

// AllocateWrite maps a logical page to a fresh physical page for a host or
// GC write, invalidating any previous location. It returns the new PPN and
// the invalidated old one (old.Valid() reports whether the LPN was mapped).
func (f *FTL) AllocateWrite(lpn int64, gc bool) (PPN, PPN, error) {
	f.mutate()
	if lpn < 0 || lpn >= f.maxLPN {
		return InvalidPPN, InvalidPPN, fmt.Errorf("ftl: LPN %d outside logical space [0, %d)", lpn, f.maxLPN)
	}
	die, pl := f.StripeOf(lpn)
	pi := f.planeIndex(die, pl)
	old, had := f.table.get(lpn)
	if had {
		f.invalidate(old)
	} else {
		old = InvalidPPN
	}
	ppn, err := f.appendTo(pi, &f.planes[pi].active, die, pl, lpn, false)
	if err != nil {
		return InvalidPPN, InvalidPPN, err
	}
	f.table.set(lpn, ppn)
	if gc {
		f.gcWrites++
	} else {
		f.hostWrites++
	}
	return ppn, old, nil
}

// appendTo appends the LPN to the open block referenced by slot, opening a
// new block when needed.
func (f *FTL) appendTo(pi int, slot *int, die, pl int, lpn int64, cold bool) (PPN, error) {
	if *slot < 0 || f.blocks[pi][*slot].writePtr >= f.cfg.PagesPerBlock {
		if *slot >= 0 {
			f.blocks[pi][*slot].state = blockClosed
		}
		b := f.popFree(pi)
		if b < 0 {
			return InvalidPPN, fmt.Errorf("ftl: plane (die %d, plane %d) out of free blocks", die, pl)
		}
		f.blocks[pi][b].cold = cold
		*slot = b
	}
	meta := &f.blocks[pi][*slot]
	page := meta.writePtr
	if meta.shared {
		meta.lpns = slices.Clone(meta.lpns)
		meta.shared = false
	}
	meta.writePtr++
	meta.valid++
	meta.lpns[page] = lpn
	return PPN{Die: die, Plane: pl, Block: *slot, Page: page}, nil
}

// invalidate marks a physical page stale. The caller remaps the page's
// LPN, which is what makes the page invalid (see pageTable.mapsTo); only
// the block's count changes here, so a shared reverse map stays untouched.
func (f *FTL) invalidate(p PPN) {
	meta := &f.blocks[f.planeIndex(p.Die, p.Plane)][p.Block]
	meta.valid--
	meta.cold = false // an invalidated block joins the GC candidate pool
}

// NeedGC reports whether a plane's free-block count is at or below the GC
// threshold.
func (f *FTL) NeedGC(die, pl int) bool {
	return f.FreeBlocks(die, pl) <= f.cfg.GCThresholdBlocks
}

// Victim selects the garbage-collection victim for a plane: the closed
// block with the fewest valid pages (greedy), breaking ties toward the
// least-worn block so cleaning work doubles as wear leveling. Open blocks,
// fully-valid cold blocks, and blocks already under collection are skipped.
// It returns the block index, dst with the valid LPNs that must be
// relocated appended, and whether a victim was found. A caller that passes
// the previous result's dst[:0] reuses one buffer for every job.
func (f *FTL) Victim(die, pl int, dst []int64) (int, []int64, bool) {
	f.mutate()
	pi := f.planeIndex(die, pl)
	best, bestValid, bestErases := -1, f.cfg.PagesPerBlock+1, 1<<30
	for b := range f.blocks[pi] {
		meta := &f.blocks[pi][b]
		if meta.state != blockClosed || meta.collected || meta.cold {
			continue
		}
		if meta.valid < bestValid || (meta.valid == bestValid && meta.erases < bestErases) {
			best, bestValid, bestErases = b, meta.valid, meta.erases
		}
	}
	if best < 0 {
		return 0, dst, false
	}
	meta := &f.blocks[pi][best]
	meta.collected = true
	for page, lpn := range meta.lpns[:meta.writePtr] {
		if f.table.mapsTo(lpn, PPN{Die: die, Plane: pl, Block: best, Page: page}) {
			dst = append(dst, lpn)
		}
	}
	return best, dst, true
}

// OnErase returns a collected (or otherwise emptied) block to the free
// pool, incrementing its wear. The caller must have relocated all valid
// pages first; erasing a block with valid pages is a data-loss bug, so it
// panics. The block keeps its reverse map for its next life: popFree
// reopens it at writePtr 0, and each page below writePtr is rewritten
// before anything reads it. A map still shared with the frozen image stays
// shared until appendTo copies it on the block's first append.
func (f *FTL) OnErase(die, pl, block int) {
	f.mutate()
	pi := f.planeIndex(die, pl)
	meta := &f.blocks[pi][block]
	if meta.valid > 0 {
		panic(fmt.Sprintf("ftl: erasing block (d%d p%d b%d) with %d valid pages",
			die, pl, block, meta.valid))
	}
	*meta = blockMeta{state: blockFree, erases: meta.erases + 1, lpns: meta.lpns, shared: meta.shared}
	f.planes[pi].freeCount++
}

// BlockValid returns the valid-page count of a block, for tests and stats.
func (f *FTL) BlockValid(die, pl, block int) int {
	return f.blocks[f.planeIndex(die, pl)][block].valid
}

// BlockErases returns a block's erase count.
func (f *FTL) BlockErases(die, pl, block int) int {
	return f.blocks[f.planeIndex(die, pl)][block].erases
}

// WriteCounts returns cumulative host and GC page writes — the inputs to a
// write-amplification calculation.
func (f *FTL) WriteCounts() (host, gc int64) { return f.hostWrites, f.gcWrites }

// WriteAmplification returns (host+gc)/host page writes, or 1 when no host
// writes have happened.
func (f *FTL) WriteAmplification() float64 {
	if f.hostWrites == 0 {
		return 1
	}
	return float64(f.hostWrites+f.gcWrites) / float64(f.hostWrites)
}
