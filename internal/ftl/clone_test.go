package ftl

import (
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"readretry/internal/rng"
)

// preconditionedFTL maps LPNs [0, pages) as cold data on a fresh FTL, the
// way the SSD simulator preconditions a device.
func preconditionedFTL(t *testing.T, cfg Config, pages int64) *FTL {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for lpn := int64(0); lpn < pages; lpn++ {
		if _, err := f.Precondition(lpn); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// ftlState is everything observable about an FTL without mutating it.
type ftlState struct {
	Lookup       []PPN
	Valid        []int
	Erases       []int
	Free         []int
	NeedGC       []bool
	Mapped       int
	Host, GC     int64
	WriteAmplify float64
}

func stateOf(f *FTL) ftlState {
	var s ftlState
	for lpn := int64(0); lpn < f.maxLPN; lpn++ {
		p, _ := f.Lookup(lpn)
		s.Lookup = append(s.Lookup, p)
	}
	for d := 0; d < f.cfg.Dies; d++ {
		for pl := 0; pl < f.cfg.PlanesPerDie; pl++ {
			s.Free = append(s.Free, f.FreeBlocks(d, pl))
			s.NeedGC = append(s.NeedGC, f.NeedGC(d, pl))
			for b := 0; b < f.cfg.BlocksPerPlane; b++ {
				s.Valid = append(s.Valid, f.BlockValid(d, pl, b))
				s.Erases = append(s.Erases, f.BlockErases(d, pl, b))
			}
		}
	}
	s.Mapped = f.Mapped()
	s.Host, s.GC = f.WriteCounts()
	s.WriteAmplify = f.WriteAmplification()
	return s
}

// victim is one Victim call's result.
type victim struct {
	Block int
	LPNs  []int64
	OK    bool
}

// victimsOf calls Victim on every plane; it marks the victims collected.
func victimsOf(f *FTL) []victim {
	var vs []victim
	for d := 0; d < f.cfg.Dies; d++ {
		for pl := 0; pl < f.cfg.PlanesPerDie; pl++ {
			b, lpns, ok := f.Victim(d, pl, nil)
			vs = append(vs, victim{b, lpns, ok})
		}
	}
	return vs
}

// ftlOp is one step of a random FTL workload, applied identically to
// several FTLs; its results must agree across them.
type ftlOp func(f *FTL) any

// collect runs one garbage-collection job on a plane: pick the victim,
// relocate its valid pages, erase it.
func collect(die, pl int) ftlOp {
	return func(f *FTL) any {
		block, lpns, ok := f.Victim(die, pl, nil)
		out := []any{victim{block, lpns, ok}}
		if !ok {
			return out
		}
		for _, lpn := range lpns {
			ppn, old, err := f.AllocateWrite(lpn, true)
			out = append(out, ppn, old, err != nil)
			if err != nil {
				return out
			}
		}
		f.OnErase(die, pl, block)
		return out
	}
}

// replay runs a random AllocateWrite / Precondition / Victim+relocate /
// OnErase workload on two FTLs and reports whether every step returned the
// same results on both. It counts the GC jobs and the cold appends it ran.
func replay(t *testing.T, r *rng.Source, a, b *FTL, collected, coldAppends *int) bool {
	cfg := a.Config()
	total := int64(cfg.Dies * cfg.PlanesPerDie * cfg.BlocksPerPlane * cfg.PagesPerBlock)
	footprint := total * 6 / 10
	for i := 0; i < 1500; i++ {
		kind := r.Intn(8)
		lpn := r.Int63n(footprint)
		die, pl := a.StripeOf(lpn)
		var op ftlOp
		switch {
		case kind < 5:
			op = func(f *FTL) any {
				ppn, old, err := f.AllocateWrite(lpn, false)
				return []any{ppn, old, err != nil}
			}
		case kind == 5:
			// A read of a never-written LPN maps it as cold data beyond
			// the preconditioned range, appending to a shared cold block.
			lpn = footprint + lpn%(total/10)
			if _, ok := a.Lookup(lpn); ok {
				continue
			}
			*coldAppends++
			op = func(f *FTL) any {
				ppn, err := f.Precondition(lpn)
				return []any{ppn, err != nil}
			}
		default:
			if !a.NeedGC(die, pl) {
				continue
			}
			*collected++
			op = collect(die, pl)
		}
		ra, rb := op(a), op(b)
		if !reflect.DeepEqual(ra, rb) {
			t.Logf("step %d, op %d on LPN %d: %v vs %v", i, kind, lpn, ra, rb)
			return false
		}
		if res := ra.([]any); res[len(res)-1] == true {
			break // plane exhaustion: both failed the same way
		}
	}
	return true
}

// wideConfig spans 16 table chunks, so random writes and cold maps cross
// chunk boundaries and land in shared, copied and missing chunks.
func wideConfig() Config {
	cfg := smallConfig()
	cfg.PagesPerBlock = 64
	return cfg
}

// TestCloneMatchesFreshPrecondition is the clone's differential property:
// random workloads on a freshly preconditioned FTL and on a Clone of the
// frozen image of the same preconditioning must agree at every step, and
// end in the same Lookup, BlockValid, FreeBlocks and Victim state. A
// sibling clone runs a different workload against its own fresh twin:
// clones share the image's table chunks and reverse maps, so a
// copy-on-write slip shows up as one clone's writes corrupting the other's
// lookups or victims. The image itself must end exactly as preconditioned.
// It runs on a 2-chunk and a 16-chunk geometry.
func TestCloneMatchesFreshPrecondition(t *testing.T) {
	t.Run("small", func(t *testing.T) { checkCloneMatchesFresh(t, smallConfig()) })
	t.Run("wide", func(t *testing.T) { checkCloneMatchesFresh(t, wideConfig()) })
}

func checkCloneMatchesFresh(t *testing.T, cfg Config) {
	var collected, coldAppends int
	check := func(seed uint64, fill uint16) bool {
		total := int64(cfg.Dies * cfg.PlanesPerDie * cfg.BlocksPerPlane * cfg.PagesPerBlock)
		pages := int64(fill) % (total * 7 / 10)
		img := preconditionedFTL(t, cfg, pages)
		img.Freeze()
		pristine := stateOf(img)
		fresh, clone := preconditionedFTL(t, cfg, pages), img.Clone()
		twin, sibling := preconditionedFTL(t, cfg, pages), img.Clone()
		r := rng.New(seed)
		if !replay(t, r.Split(1), fresh, clone, &collected, &coldAppends) ||
			!replay(t, r.Split(2), twin, sibling, &collected, &coldAppends) {
			return false
		}
		for _, pair := range [][2]*FTL{{fresh, clone}, {twin, sibling}} {
			if !reflect.DeepEqual(stateOf(pair[0]), stateOf(pair[1])) {
				t.Log("clone state diverged from its fresh FTL")
				return false
			}
			if !reflect.DeepEqual(victimsOf(pair[0]), victimsOf(pair[1])) {
				t.Log("clone victims diverged from its fresh FTL")
				return false
			}
		}
		if !reflect.DeepEqual(stateOf(img), pristine) ||
			!reflect.DeepEqual(victimsOf(img.Clone()), victimsOf(preconditionedFTL(t, cfg, pages))) {
			t.Log("mutating clones changed the image")
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
	if collected == 0 || coldAppends == 0 {
		t.Errorf("workloads ran %d GC jobs and %d cold appends; both paths must be exercised", collected, coldAppends)
	}
}

// TestFrozenImageRejectsMutation pins Freeze's contract: an image is shared
// by its clones, so every mutator panics on it.
func TestFrozenImageRejectsMutation(t *testing.T) {
	f := preconditionedFTL(t, smallConfig(), 100)
	f.Freeze()
	for name, mutate := range map[string]func(){
		"AllocateWrite": func() { f.AllocateWrite(3, false) },
		"Precondition":  func() { f.Precondition(200) },
		"Victim":        func() { f.Victim(0, 0, nil) },
		"OnErase":       func() { f.OnErase(0, 0, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a frozen image did not panic", name)
				}
			}()
			mutate()
		}()
	}
	defer func() {
		if recover() == nil {
			t.Error("Clone of an unfrozen FTL did not panic")
		}
	}()
	newFTL(t).Clone()
}

// TestCloneGrowsTable checks that an image's table covers only the chunks
// its preconditioning wrote, and that a clone grows it on demand without
// the image seeing the write.
func TestCloneGrowsTable(t *testing.T) {
	f := preconditionedFTL(t, smallConfig(), 100)
	f.Freeze()
	if got, want := len(f.table.chunks), (100+chunkLen-1)/chunkLen; got != want {
		t.Fatalf("frozen table holds %d chunks, want %d", got, want)
	}
	c := f.Clone()
	if _, _, err := c.AllocateWrite(900, false); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Lookup(900); !ok {
		t.Fatal("clone did not map an LPN beyond the image's last chunk")
	}
	if _, ok := f.Lookup(900); ok {
		t.Fatal("a clone's write reached the image")
	}
}

// TestCloneCopiesOnlyWrittenChunks pins the copy-on-write table: a clone's
// first write copies the one 4 KiB chunk it lands in, a second write to
// that chunk copies nothing, and neither the image nor a sibling clone
// sees the write.
func TestCloneCopiesOnlyWrittenChunks(t *testing.T) {
	cfg := wideConfig()
	img := preconditionedFTL(t, cfg, 8*chunkLen)
	img.Freeze()
	clone, sibling := img.Clone(), img.Clone()
	lpn := int64(3*chunkLen + 5)
	old, _ := img.Lookup(lpn)

	allocated := func(write int64) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := clone.AllocateWrite(write, false)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	// The first write also opens the plane's active block, whose reverse
	// map is one page per LPN: the slack covers it.
	const chunkBytes = chunkLen * 8
	slack := uint64(cfg.PagesPerBlock*8 + 512)
	if got := allocated(lpn); got < chunkBytes || got > chunkBytes+slack {
		t.Errorf("first write allocated %d bytes, want one %d-byte chunk plus at most %d", got, chunkBytes, slack)
	}
	// Same die and plane, same chunk: the open block and the chunk are
	// already the clone's own.
	stripe := int64(cfg.Dies * cfg.PlanesPerDie)
	if got := allocated(lpn + stripe); got != 0 {
		t.Errorf("second write into the same chunk allocated %d bytes, want 0", got)
	}
	if p, _ := clone.Lookup(lpn); p == old {
		t.Fatal("clone still maps the written LPN to its old page")
	}
	for name, f := range map[string]*FTL{"image": img, "sibling clone": sibling} {
		if p, ok := f.Lookup(lpn); !ok || p != old {
			t.Errorf("%s maps LPN %d to %v, want its old page %v", name, lpn, p, old)
		}
	}
}

// TestErasedBlockReusesItsReverseMap: in a clone, a block takes its own
// reverse map the first time it is written (a copy of the image's, or a
// new one for a block the image left free), and every later erase and
// reopen reuses that map. Cycling a hot set through one plane's garbage
// collection must therefore stop allocating once the blocks own their
// maps, and the image must end exactly as preconditioned.
func TestErasedBlockReusesItsReverseMap(t *testing.T) {
	cfg := smallConfig()
	const pages = 400
	img := preconditionedFTL(t, cfg, pages)
	img.Freeze()
	pristine := stateOf(img)
	f := img.Clone()
	die, pl := f.StripeOf(0)
	blocks := f.blocks[f.planeIndex(die, pl)]
	stride := int64(cfg.Dies * cfg.PlanesPerDie)
	own := make([]*int64, cfg.BlocksPerPlane) // each block's map once it owns one
	var victims []int64
	cycle := func(i int) {
		if _, _, err := f.AllocateWrite(int64(i%24)*stride, false); err != nil {
			t.Fatal(err)
		}
		for f.NeedGC(die, pl) {
			block, valids, ok := f.Victim(die, pl, victims[:0])
			victims = valids
			if !ok {
				t.Fatal("plane needs GC but has no victim")
			}
			for _, lpn := range valids {
				if _, _, err := f.AllocateWrite(lpn, true); err != nil {
					t.Fatal(err)
				}
			}
			f.OnErase(die, pl, block)
		}
		for b := range blocks {
			meta := &blocks[b]
			if meta.shared || meta.lpns == nil {
				continue
			}
			if own[b] == nil {
				own[b] = &meta.lpns[0]
			} else if own[b] != &meta.lpns[0] {
				t.Fatalf("cycle %d: block %d replaced the reverse map it owned", i, b)
			}
		}
	}
	for i := 0; i < 1000; i++ {
		cycle(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1000; i < 2000; i++ {
		cycle(i)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got != 0 {
		t.Errorf("1000 warm write and GC cycles allocated %d bytes, want 0", got)
	}
	reopened := 0
	for b := range blocks {
		if f.BlockErases(die, pl, b) >= 2 {
			reopened++
		}
	}
	if reopened < cfg.BlocksPerPlane/2 {
		t.Errorf("only %d of %d blocks were erased twice; the reuse path is barely exercised", reopened, cfg.BlocksPerPlane)
	}
	if !reflect.DeepEqual(stateOf(img), pristine) ||
		!reflect.DeepEqual(victimsOf(img.Clone()), victimsOf(preconditionedFTL(t, cfg, pages))) {
		t.Error("erasing and reopening a clone's blocks changed the image")
	}
}
