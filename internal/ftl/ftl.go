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

import "fmt"

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

// blockMeta tracks one physical block. Its page counters fit int32, since
// Validate bounds a block to 2^20 pages.
type blockMeta struct {
	// state is free, open (actively written), or closed.
	state blockState
	cold  bool // preconditioned cold block (never victimized while fully valid)
	// preRun: the block holds only pre-run data (an image block, or one the
	// cold slot opened) and was never erased, so its pages keep their age.
	// An overwrite of one page, which clears cold, leaves it set.
	preRun    bool
	collected bool  // currently being garbage-collected
	writePtr  int32 // next page to program; pages below it were written
	valid     int32 // count of valid pages
	erases    int32 // P/E cycles (wear)
	// rmap is 1 + the index in FTL.rmaps of the block's reverse map, the
	// LPN each page below writePtr was written for, or 0 if the block has
	// none. A block the preconditioned image filled has none until it is
	// appended to: its pages' LPNs follow from the image's layout
	// (image.lpn). The block keeps its map across erases, so a reopened
	// block allocates nothing.
	rmap int32
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

// pageTable is the LPN → PPN map. Logical page numbers are dense
// (workloads address a contiguous footprint), so the table is indexed by
// LPN rather than hashed. It stores only the LPNs written since the FTL
// was built: an LPN of the preconditioned image that no leaf holds is
// answered from the image's layout, so an experiment-scale device, most of
// whose pages are preconditioned, costs a group index of one pointer per
// 512 LPNs plus 512 bytes per 64-LPN leaf its writes touch.
type pageTable struct {
	groups []*group // one per groupLen LPNs of the logical space
	img    image
	count  int
}

// A group covers groupLen = 512 LPNs with groupLeaves leaves of leafLen =
// 64 packed entries each: a cell's scattered writes fill few entries of
// each leaf they touch, and the group index stays small beside them.
const (
	leafShift   = 6
	leafLen     = 1 << leafShift
	groupShift  = 9
	groupLen    = 1 << groupShift
	groupLeaves = groupLen / leafLen
)

type (
	leaf  [leafLen]uint64 // packed PPN | ppnValidBit; zero means unmapped
	group [groupLeaves]*leaf
)

// image is the layout that Precondition of LPNs [0, pages), in order, on a
// fresh FTL leaves. LPN l stripes to die l mod D and plane ⌊l/D⌋ mod P
// (StripeOf), and is the k-th LPN of its plane, k = ⌊l/(D·P)⌋. The plane
// fills its blocks in index order, every one being free and unworn, so l
// lands at block ⌊k/PPB⌋, page k mod PPB.
type image struct {
	pages        int64
	stripe, ppb  int64    // D·P and PagesPerBlock
	dies, planes int64    // D and P
	stripeBits   []uint64 // by l mod D·P: the packed die and plane fields
}

func newImage(cfg Config, pages int64) image {
	im := image{
		pages:  pages,
		stripe: int64(cfg.Dies * cfg.PlanesPerDie),
		ppb:    int64(cfg.PagesPerBlock),
		dies:   int64(cfg.Dies),
		planes: int64(cfg.PlanesPerDie),
	}
	im.stripeBits = make([]uint64, im.stripe)
	for q := range im.stripeBits {
		im.stripeBits[q] = packPPN(PPN{Die: q % cfg.Dies, Plane: q / cfg.Dies})
	}
	return im
}

// entry returns the packed PPN of image LPN lpn, 0 ≤ lpn < pages.
func (im *image) entry(lpn int64) uint64 {
	k := lpn / im.stripe
	blk := k / im.ppb
	return im.stripeBits[lpn-k*im.stripe] | uint64(blk)<<ppnPageBits | uint64(k-blk*im.ppb)
}

// lpn returns the image LPN at page of block blk of plane (die, pl).
func (im *image) lpn(die, pl, blk, page int) int64 {
	return im.dies*(im.planes*(int64(blk)*im.ppb+int64(page))+int64(pl)) + int64(die)
}

// fill writes the image entries of the leaf starting at LPN base, stepping
// through the stripe with no division past the first entry.
func (im *image) fill(l *leaf, base int64) {
	n := min(im.pages-base, leafLen)
	if n <= 0 {
		return
	}
	k := base / im.stripe
	q := base - k*im.stripe
	blk := k / im.ppb
	page := k - blk*im.ppb
	for i := int64(0); i < n; i++ {
		l[i] = im.stripeBits[q] | uint64(blk)<<ppnPageBits | uint64(page)
		if q++; q == im.stripe {
			q = 0
			if page++; page == im.ppb {
				page = 0
				blk++
			}
		}
	}
}

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

// at returns lpn's packed entry, or 0 for an unmapped LPN or one outside
// the logical space.
func (t *pageTable) at(lpn int64) uint64 {
	if lpn < 0 || lpn>>groupShift >= int64(len(t.groups)) {
		return 0
	}
	if g := t.groups[lpn>>groupShift]; g != nil {
		if l := g[lpn>>leafShift&(groupLeaves-1)]; l != nil {
			return l[lpn&(leafLen-1)]
		}
	}
	if lpn < t.img.pages {
		return t.img.entry(lpn)
	}
	return 0
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

// set maps lpn, which lies in the logical space, to p. The first write to
// a leaf allocates it, filled with the image's entries for its LPNs.
func (t *pageTable) set(lpn int64, p PPN) {
	g := t.groups[lpn>>groupShift]
	if g == nil {
		g = new(group)
		t.groups[lpn>>groupShift] = g
	}
	l := g[lpn>>leafShift&(groupLeaves-1)]
	if l == nil {
		l = new(leaf)
		t.img.fill(l, lpn&^(leafLen-1))
		g[lpn>>leafShift&(groupLeaves-1)] = l
	}
	e := &l[lpn&(leafLen-1)]
	if *e&ppnValidBit == 0 {
		t.count++
	}
	*e = packPPN(p)
}

// FTL is the translation layer state.
type FTL struct {
	cfg    Config
	table  pageTable   // LPN → PPN
	blocks []blockMeta // [globalPlane*BlocksPerPlane + block]
	rmaps  [][]int64   // reverse maps, by blockMeta.rmap − 1
	planes []plane
	// maxLPN bounds the logical address space to the device's physical
	// page count; an LPN outside it is rejected up front.
	maxLPN int64

	hostWrites int64
	gcWrites   int64
}

// New builds an FTL with every block free.
func New(cfg Config) (*FTL, error) { return NewPreconditioned(cfg, 0) }

// NewPreconditioned builds the FTL that New followed by Precondition of
// every LPN in [0, pages), in order, leaves: the image. It derives that
// state from the image's layout in O(planes + image blocks) instead of
// mapping page by page, and it fails exactly as that loop would when pages
// exceeds the logical space.
func NewPreconditioned(cfg Config, pages int64) (*FTL, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nPlanes := cfg.Dies * cfg.PlanesPerDie
	maxLPN := int64(nPlanes) * int64(cfg.BlocksPerPlane) * int64(cfg.PagesPerBlock)
	if pages > maxLPN {
		return nil, fmt.Errorf("ftl: LPN %d outside logical space [0, %d)", maxLPN, maxLPN)
	}
	pages = max(pages, 0)
	f := &FTL{
		cfg: cfg,
		table: pageTable{
			groups: make([]*group, (maxLPN+groupLen-1)/groupLen),
			img:    newImage(cfg, pages),
			count:  int(pages),
		},
		blocks: make([]blockMeta, nPlanes*cfg.BlocksPerPlane),
		planes: make([]plane, nPlanes),
		maxLPN: maxLPN,
	}
	stripe, ppb := int64(nPlanes), int64(cfg.PagesPerBlock)
	for die := 0; die < cfg.Dies; die++ {
		for pl := 0; pl < cfg.PlanesPerDie; pl++ {
			// The plane holds the image LPNs q, q + D·P, … below pages, and
			// pages ≤ maxLPN keeps them within its blocks.
			q := int64(die + cfg.Dies*pl)
			n := max(pages-q+stripe-1, 0) / stripe
			used := int((n + ppb - 1) / ppb)
			pi := f.planeIndex(die, pl)
			blocks := f.blocks[pi*cfg.BlocksPerPlane:][:used]
			for b := range blocks {
				blocks[b] = blockMeta{state: blockClosed, cold: true, preRun: true, writePtr: int32(ppb), valid: int32(ppb)}
			}
			f.planes[pi] = plane{active: -1, coldOpen: used - 1, freeCount: cfg.BlocksPerPlane - used}
			if used > 0 {
				// The last cold block stays open, even when full: only the
				// next cold append closes it.
				last := &blocks[used-1]
				last.state = blockOpen
				last.writePtr = int32(n - int64(used-1)*ppb)
				last.valid = last.writePtr
			}
		}
	}
	return f, nil
}

// Config returns the FTL's configuration.
func (f *FTL) Config() Config { return f.cfg }

// planeIndex flattens (die, plane).
func (f *FTL) planeIndex(die, pl int) int { return die*f.cfg.PlanesPerDie + pl }

// planeBlocks returns the blocks of flattened plane pi.
func (f *FTL) planeBlocks(pi int) []blockMeta {
	return f.blocks[pi*f.cfg.BlocksPerPlane:][:f.cfg.BlocksPerPlane]
}

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
	blocks := f.planeBlocks(pi)
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
	*old = blockMeta{state: blockOpen, erases: old.erases, rmap: old.rmap}
	return best
}

// Precondition maps a logical page that existed before the simulation
// started (cold data): it is placed in the plane's preconditioning block
// without consuming simulated time. The caller must not precondition an
// already mapped LPN.
func (f *FTL) Precondition(lpn int64) (PPN, error) {
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
	if lpn < 0 || lpn >= f.maxLPN {
		return InvalidPPN, InvalidPPN, fmt.Errorf("ftl: LPN %d outside logical space [0, %d)", lpn, f.maxLPN)
	}
	die, pl := f.StripeOf(lpn)
	pi := f.planeIndex(die, pl)
	ppn, err := f.appendTo(pi, &f.planes[pi].active, die, pl, lpn, false)
	if err != nil {
		return InvalidPPN, InvalidPPN, err
	}
	// The old page is invalidated only once the write has a page, so a
	// plane that runs out of blocks leaves every count as it was.
	old, had := f.table.get(lpn)
	if had {
		f.invalidate(old)
	} else {
		old = InvalidPPN
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
	blocks := f.planeBlocks(pi)
	if *slot < 0 || int(blocks[*slot].writePtr) >= f.cfg.PagesPerBlock {
		if *slot >= 0 {
			blocks[*slot].state = blockClosed
			*slot = -1 // a plane out of free blocks keeps no full block open
		}
		b := f.popFree(pi)
		if b < 0 {
			return InvalidPPN, fmt.Errorf("ftl: plane (die %d, plane %d) out of free blocks", die, pl)
		}
		blocks[b].cold = cold
		blocks[b].preRun = cold && blocks[b].erases == 0
		*slot = b
	}
	meta := &blocks[*slot]
	page := int(meta.writePtr)
	if meta.rmap == 0 {
		f.ownReverseMap(meta, die, pl, *slot)
	}
	lpns := &f.rmaps[meta.rmap-1]
	if len(*lpns) == cap(*lpns) {
		*lpns = append(make([]int64, 0, min(2*len(*lpns), f.cfg.PagesPerBlock)), *lpns...)
	}
	*lpns = append(*lpns, lpn)
	meta.writePtr++
	meta.valid++
	return PPN{Die: die, Plane: pl, Block: *slot, Page: page}, nil
}

// ownReverseMap gives block blk of plane (die, pl) a reverse map of its
// own, holding the image LPNs of the pages below its writePtr. A map
// starts at min(PagesPerBlock, 64) entries and grows as the block fills:
// a cell's writes use few pages of each block they open.
func (f *FTL) ownReverseMap(meta *blockMeta, die, pl, blk int) {
	lpns := make([]int64, meta.writePtr, max(int(meta.writePtr), min(f.cfg.PagesPerBlock, leafLen)))
	for page := range lpns {
		lpns[page] = f.table.img.lpn(die, pl, blk, page)
	}
	f.rmaps = append(f.rmaps, lpns)
	meta.rmap = int32(len(f.rmaps))
}

// pageLPN returns the LPN page of block blk of plane (die, pl) was written
// for; page must lie below the block's writePtr.
func (f *FTL) pageLPN(meta *blockMeta, die, pl, blk, page int) int64 {
	if meta.rmap == 0 {
		return f.table.img.lpn(die, pl, blk, page)
	}
	return f.rmaps[meta.rmap-1][page]
}

// invalidate marks a physical page stale. The caller remaps the page's
// LPN, which is what makes the page invalid (see pageTable.mapsTo); only
// the block's count changes here.
func (f *FTL) invalidate(p PPN) {
	meta := &f.planeBlocks(f.planeIndex(p.Die, p.Plane))[p.Block]
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
	blocks := f.planeBlocks(f.planeIndex(die, pl))
	best, bestValid, bestErases := -1, int32(f.cfg.PagesPerBlock+1), int32(1<<30)
	for b := range blocks {
		meta := &blocks[b]
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
	meta := &blocks[best]
	meta.collected = true
	for page := 0; page < int(meta.writePtr); page++ {
		lpn := f.pageLPN(meta, die, pl, best, page)
		if f.table.mapsTo(lpn, PPN{Die: die, Plane: pl, Block: best, Page: page}) {
			dst = append(dst, lpn)
		}
	}
	return best, dst, true
}

// OnErase returns a collected (or otherwise emptied) block to the free
// pool, incrementing its wear. The caller must have relocated all valid
// pages first; erasing a block with valid pages is a data-loss bug, so it
// panics. The block keeps its reverse map's storage for its next life.
func (f *FTL) OnErase(die, pl, block int) {
	pi := f.planeIndex(die, pl)
	meta := &f.planeBlocks(pi)[block]
	if meta.valid > 0 {
		panic(fmt.Sprintf("ftl: erasing block (d%d p%d b%d) with %d valid pages",
			die, pl, block, meta.valid))
	}
	if meta.rmap > 0 {
		f.rmaps[meta.rmap-1] = f.rmaps[meta.rmap-1][:0]
	}
	*meta = blockMeta{state: blockFree, erases: meta.erases + 1, rmap: meta.rmap}
	f.planes[pi].freeCount++
}

// BlockValid returns the valid-page count of a block, for tests and stats.
func (f *FTL) BlockValid(die, pl, block int) int {
	return int(f.planeBlocks(f.planeIndex(die, pl))[block].valid)
}

// BlockErases returns a block's erase count.
func (f *FTL) BlockErases(die, pl, block int) int {
	return int(f.planeBlocks(f.planeIndex(die, pl))[block].erases)
}

// BlockWear returns what a read's error model needs of a block: its erase
// count, and whether its pages keep their pre-run age (blockMeta.preRun).
func (f *FTL) BlockWear(die, pl, block int) (erases int, preRun bool) {
	meta := &f.planeBlocks(f.planeIndex(die, pl))[block]
	return int(meta.erases), meta.preRun
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

// Audit checks the FTL's conservation law, for tests: every block's valid
// count equals the number of its pages below writePtr whose reverse-map
// LPN still maps there, those pages number as many as the LPNs with a
// valid entry, and Mapped reports that number. Each such page's LPN maps
// to it alone, so the second equality says that every mapped LPN maps to
// exactly one valid page. Audit reads every written page and every leaf
// of the table.
func (f *FTL) Audit() error {
	valid := 0
	for pi := range f.planes {
		die, pl := pi/f.cfg.PlanesPerDie, pi%f.cfg.PlanesPerDie
		blocks := f.planeBlocks(pi)
		for b := range blocks {
			meta := &blocks[b]
			if meta.rmap > 0 && len(f.rmaps[meta.rmap-1]) != int(meta.writePtr) {
				return fmt.Errorf("ftl: block (d%d p%d b%d) reverse map holds %d pages, writePtr %d",
					die, pl, b, len(f.rmaps[meta.rmap-1]), meta.writePtr)
			}
			n := 0
			for page := 0; page < int(meta.writePtr); page++ {
				if f.table.mapsTo(f.pageLPN(meta, die, pl, b, page), PPN{Die: die, Plane: pl, Block: b, Page: page}) {
					n++
				}
			}
			if n != int(meta.valid) {
				return fmt.Errorf("ftl: block (d%d p%d b%d) counts %d valid pages, its reverse map %d",
					die, pl, b, meta.valid, n)
			}
			valid += n
		}
	}
	mapped := 0
	for gi, g := range f.table.groups {
		for li := 0; li < groupLeaves; li++ {
			if g == nil || g[li] == nil {
				mapped += int(max(min(f.table.img.pages-int64(gi*groupLen+li*leafLen), leafLen), 0))
				continue
			}
			for _, e := range g[li] {
				if e&ppnValidBit != 0 {
					mapped++
				}
			}
		}
	}
	if mapped != valid {
		return fmt.Errorf("ftl: %d LPNs are mapped, %d pages are valid", mapped, valid)
	}
	if mapped != f.table.count {
		return fmt.Errorf("ftl: Mapped reports %d LPNs, the table maps %d", f.table.count, mapped)
	}
	return nil
}
