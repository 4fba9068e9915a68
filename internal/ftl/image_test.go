package ftl

import (
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"readretry/internal/rng"
)

// preconditionedFTL maps LPNs [0, pages) as cold data on a fresh FTL one
// by one: the reference NewPreconditioned must match.
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
	PreRun       []bool
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
				_, preRun := f.BlockWear(d, pl, b)
				s.PreRun = append(s.PreRun, preRun)
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

// derivedFTL is NewPreconditioned(cfg, pages), failing the test on error.
func derivedFTL(t *testing.T, cfg Config, pages int64) *FTL {
	t.Helper()
	f, err := NewPreconditioned(cfg, pages)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// audit fails the test if an FTL breaks its conservation law.
func audit(t *testing.T, step int, fs ...*FTL) {
	t.Helper()
	for _, f := range fs {
		if err := f.Audit(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

// replay runs a random AllocateWrite / Precondition / Victim+relocate /
// OnErase workload on two FTLs and reports whether every step returned the
// same results on both. b must keep the conservation law after every step
// that did not fail when stepAudit is set, and at the end always. It
// counts the GC jobs and the cold appends it ran.
func replay(t *testing.T, r *rng.Source, a, b *FTL, stepAudit bool, collected, coldAppends *int) bool {
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
			// the preconditioned range, appending to an image block.
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
		if stepAudit {
			audit(t, i, b)
		}
	}
	audit(t, -1, b)
	return true
}

// wideConfig spans 16 groups of the table, so random writes and cold maps
// cross leaf and group boundaries and land in image, filled and missing
// leaves.
func wideConfig() Config {
	cfg := smallConfig()
	cfg.PagesPerBlock = 64
	return cfg
}

// TestCloneMatchesFreshPrecondition is NewPreconditioned's differential
// property: random workloads on an FTL preconditioned page by page and on
// the derived FTL of the same preconditioning must agree at every step,
// keep the conservation law, and end in the same Lookup, BlockValid,
// BlockWear, FreeBlocks and Victim state. A second derived FTL runs a different
// workload against its own page-by-page twin, and a third, derived after
// both ran, must still equal the reference: derived FTLs share nothing.
// It runs on a 2-group and a 16-group geometry. The first auditedRuns
// workloads audit the conservation law after every step, the rest at
// their end: an audit reads every written page, and auditing every step
// of all 100 workloads takes ten times as long as the rest of the test.
func TestCloneMatchesFreshPrecondition(t *testing.T) {
	t.Run("small", func(t *testing.T) { checkDerivedMatchesFresh(t, smallConfig()) })
	t.Run("wide", func(t *testing.T) { checkDerivedMatchesFresh(t, wideConfig()) })
}

const auditedRuns = 10

func checkDerivedMatchesFresh(t *testing.T, cfg Config) {
	var runs, collected, coldAppends int
	check := func(seed uint64, fill uint16) bool {
		runs++
		total := int64(cfg.Dies * cfg.PlanesPerDie * cfg.BlocksPerPlane * cfg.PagesPerBlock)
		pages := int64(fill) % (total * 7 / 10)
		pristine := stateOf(preconditionedFTL(t, cfg, pages))
		fresh, derived := preconditionedFTL(t, cfg, pages), derivedFTL(t, cfg, pages)
		twin, sibling := preconditionedFTL(t, cfg, pages), derivedFTL(t, cfg, pages)
		if !reflect.DeepEqual(stateOf(derived), pristine) {
			t.Log("derived state differs from the page-by-page preconditioning")
			return false
		}
		audit(t, -1, derived)
		r := rng.New(seed)
		stepAudit := runs <= auditedRuns
		if !replay(t, r.Split(1), fresh, derived, stepAudit, &collected, &coldAppends) ||
			!replay(t, r.Split(2), twin, sibling, stepAudit, &collected, &coldAppends) {
			return false
		}
		for _, pair := range [][2]*FTL{{fresh, derived}, {twin, sibling}} {
			if !reflect.DeepEqual(stateOf(pair[0]), stateOf(pair[1])) {
				t.Log("derived state diverged from its fresh FTL")
				return false
			}
			if !reflect.DeepEqual(victimsOf(pair[0]), victimsOf(pair[1])) {
				t.Log("derived victims diverged from its fresh FTL")
				return false
			}
		}
		late := derivedFTL(t, cfg, pages)
		if !reflect.DeepEqual(stateOf(late), pristine) ||
			!reflect.DeepEqual(victimsOf(late), victimsOf(preconditionedFTL(t, cfg, pages))) {
			t.Log("an FTL derived after the workloads differs from the preconditioning")
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

// TestCloneCopiesOnlyWrittenChunks pins the sparse table: a derived FTL's
// first write to an image LPN allocates the one 64-entry leaf it lands
// in, a second write to that leaf allocates nothing, and every other LPN
// of the leaf keeps its image page.
func TestCloneCopiesOnlyWrittenChunks(t *testing.T) {
	cfg := wideConfig()
	f := derivedFTL(t, cfg, 8*groupLen)
	ref := preconditionedFTL(t, cfg, 8*groupLen)
	lpn := int64(3*groupLen + 5)
	old, _ := f.Lookup(lpn)

	allocated := func(write int64) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := f.AllocateWrite(write, false)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	// The first write also allocates the leaf's group and opens the
	// plane's active block, whose reverse map starts at 64 pages: the
	// slack covers them and the list of reverse maps.
	const leafBytes = leafLen * 8
	slack := uint64(groupLeaves*8 + min(cfg.PagesPerBlock, leafLen)*8 + 512)
	if got := allocated(lpn); got < leafBytes || got > leafBytes+slack {
		t.Errorf("first write allocated %d bytes, want one %d-byte leaf plus at most %d", got, leafBytes, slack)
	}
	// Same die and plane, same leaf: the open block and the leaf are
	// already there.
	stripe := int64(cfg.Dies * cfg.PlanesPerDie)
	if got := allocated(lpn + stripe); got != 0 {
		t.Errorf("second write into the same leaf allocated %d bytes, want 0", got)
	}
	if p, _ := f.Lookup(lpn); p == old {
		t.Fatal("the written LPN still maps to its old page")
	}
	base := lpn &^ (leafLen - 1)
	for l := base; l < base+leafLen; l++ {
		if l == lpn || l == lpn+stripe {
			continue
		}
		got, _ := f.Lookup(l)
		if want, _ := ref.Lookup(l); got != want {
			t.Errorf("LPN %d of the written leaf maps to %v, not its image page %v", l, got, want)
		}
	}
}

// TestErasedBlockReusesItsReverseMap: a derived FTL's block takes its own
// reverse map the first time it is written (filled from the image for a
// cold block, empty for a block the image left free), and every later
// erase and reopen reuses that map. Cycling a hot set through one plane's
// garbage collection must therefore stop allocating once the blocks own
// their maps, and an FTL derived afterwards must be unchanged.
func TestErasedBlockReusesItsReverseMap(t *testing.T) {
	cfg := smallConfig()
	const pages = 400
	pristine := stateOf(preconditionedFTL(t, cfg, pages))
	f := derivedFTL(t, cfg, pages)
	die, pl := f.StripeOf(0)
	blocks := f.planeBlocks(f.planeIndex(die, pl))
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
			if blocks[b].rmap == 0 {
				continue
			}
			lpns := f.rmaps[blocks[b].rmap-1]
			if p := &lpns[:1][0]; own[b] == nil {
				own[b] = p
			} else if own[b] != p {
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
	audit(t, 2000, f)
	if late := derivedFTL(t, cfg, pages); !reflect.DeepEqual(stateOf(late), pristine) ||
		!reflect.DeepEqual(victimsOf(late), victimsOf(preconditionedFTL(t, cfg, pages))) {
		t.Error("erasing and reopening a derived FTL's blocks changed a later one")
	}
}

// FuzzPreconditionedImage decodes a geometry (1–4 dies, 1–3 planes, 3–12
// blocks of 1–9 pages, a GC threshold), a preconditioned page count up to
// 70% of the device, and up to 200 write, cold-map and GC operations. It
// applies them to NewPreconditioned and to New plus Precondition of every
// image LPN, which must agree on every result, keep the conservation law,
// and end in the same Lookup, valid, erase and free counts, pre-run bits
// and victims.
func FuzzPreconditionedImage(f *testing.F) {
	r := rng.New(7)
	for i := 0; i < 8; i++ {
		seed := make([]byte, 7+3*200)
		for j := range seed {
			seed[j] = byte(r.Intn(256))
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 7 {
			return
		}
		cfg := Config{
			Dies:           1 + int(data[0])%4,
			PlanesPerDie:   1 + int(data[1])%3,
			BlocksPerPlane: 3 + int(data[2])%10,
			PagesPerBlock:  1 + int(data[3])%9,
		}
		cfg.GCThresholdBlocks = 1 + int(data[4])%(cfg.BlocksPerPlane-1)
		total := int64(cfg.Dies * cfg.PlanesPerDie * cfg.BlocksPerPlane * cfg.PagesPerBlock)
		pages := (int64(data[5]) | int64(data[6])<<8) % (total*7/10 + 1)
		ref, derived := preconditionedFTL(t, cfg, pages), derivedFTL(t, cfg, pages)
		if !reflect.DeepEqual(stateOf(ref), stateOf(derived)) {
			t.Fatalf("%+v, %d pages: derived state differs from the page-by-page preconditioning", cfg, pages)
		}
		audit(t, -1, ref, derived)
		ops := data[7:]
		for i := 0; i+3 <= len(ops) && i < 3*200; i += 3 {
			lpn := (int64(ops[i+1]) | int64(ops[i+2])<<8) % total
			var op ftlOp
			switch ops[i] % 3 {
			case 0:
				op = func(f *FTL) any {
					ppn, old, err := f.AllocateWrite(lpn%(total*7/10+1), false)
					return []any{ppn, old, err != nil}
				}
			case 1:
				op = func(f *FTL) any {
					ppn, err := f.Precondition(lpn)
					return []any{ppn, err != nil}
				}
			default:
				op = collect(ref.StripeOf(lpn))
			}
			ra, rd := op(ref), op(derived)
			if !reflect.DeepEqual(ra, rd) {
				t.Fatalf("op %d on LPN %d: %v vs %v", i/3, lpn, ra, rd)
			}
			audit(t, i/3, ref, derived)
		}
		if !reflect.DeepEqual(stateOf(ref), stateOf(derived)) {
			t.Fatal("derived state diverged")
		}
		if !reflect.DeepEqual(victimsOf(ref), victimsOf(derived)) {
			t.Fatal("derived victims diverged")
		}
	})
}

// TestAuditCatchesBrokenState breaks an image block's write pointer, a
// block's valid count and the mapped count in turn: Audit must report
// each.
func TestAuditCatchesBrokenState(t *testing.T) {
	cfg := smallConfig()
	for name, breakIt := range map[string]func(f *FTL){
		"write pointer": func(f *FTL) { f.blocks[0].writePtr--; f.blocks[0].valid-- },
		"valid count":   func(f *FTL) { f.blocks[0].valid++ },
		"mapped count":  func(f *FTL) { f.table.count++ },
	} {
		f := derivedFTL(t, cfg, 300)
		if err := f.Audit(); err != nil {
			t.Fatalf("intact FTL: %v", err)
		}
		breakIt(f)
		if err := f.Audit(); err == nil {
			t.Errorf("Audit missed a broken %s", name)
		}
	}
}
