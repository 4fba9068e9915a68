package vth

import (
	"testing"

	"readretry/internal/nand"
	"readretry/internal/rng"
)

// TestPageRandMatchesSplitChain pins the allocation-free pageRand derivation
// to the original generator chain it replaced: any divergence would silently
// re-realize the entire simulated chip population.
func TestPageRandMatchesSplitChain(t *testing.T) {
	for _, seed := range []uint64{0, 1, 7, 0xdeadbeef} {
		m := NewModel(DefaultParams(), seed)
		for _, pg := range []PageID{
			{}, {Chip: 1}, {Block: 1}, {Page: 1},
			{Chip: 159, Block: 3775, Page: 575},
			{Chip: 12, Block: 999, Page: 17},
		} {
			gotB, gotP, gotJ, gotS := m.pageRand(pg)

			src := rng.New(seed).Split(uint64(pg.Chip)*0x9e3779b9 + 0x1234)
			blockSrc := src.Split(uint64(pg.Block))
			wantB := blockSrc.Float64()
			pageSrc := blockSrc.Split(uint64(pg.Page))
			wantP := pageSrc.Float64()
			wantJ := pageSrc.Float64()
			wantS := pageSrc.Float64()

			if gotB != wantB || gotP != wantP || gotJ != wantJ || gotS != wantS {
				t.Fatalf("seed %d page %+v: pageRand = (%v,%v,%v,%v), split chain = (%v,%v,%v,%v)",
					seed, pg, gotB, gotP, gotJ, gotS, wantB, wantP, wantJ, wantS)
			}
		}
	}
}

// profileGrid enumerates the condition × reduction grid the differential
// tests sweep: every Figure 14/15 condition plus fresh, hot, and clamped
// corners, crossed with the reductions the RPT can actually program.
func profileGrid() ([]Condition, []nand.Reduction) {
	conds := []Condition{
		{PEC: 0, RetentionMonths: 0, TempC: 30},
		{PEC: 0, RetentionMonths: 3, TempC: 85},
		{PEC: 250, RetentionMonths: 0.2, TempC: 30},
		{PEC: 1000, RetentionMonths: 0, TempC: 30},
		{PEC: 1000, RetentionMonths: 1, TempC: 55},
		{PEC: 1000, RetentionMonths: 3, TempC: 30},
		{PEC: 1000, RetentionMonths: 6, TempC: 85},
		{PEC: 1000, RetentionMonths: 12, TempC: 30},
		{PEC: 2000, RetentionMonths: 0, TempC: 30},
		{PEC: 2000, RetentionMonths: 1, TempC: 30},
		{PEC: 2000, RetentionMonths: 3, TempC: 55},
		{PEC: 2000, RetentionMonths: 6, TempC: 30},
		{PEC: 2000, RetentionMonths: 12, TempC: 85},
		{PEC: 2000, RetentionMonths: 12, TempC: 30},
		{PEC: 3000, RetentionMonths: -1, TempC: 100},
		// Drift beyond the 40-step ladder: exercises the Failed branch of
		// Read (wall errors at the exhausted final step).
		{PEC: 2000, RetentionMonths: 96, TempC: 30},
	}
	reds := []nand.Reduction{
		{},
		{Pre: nand.LevelFraction(6)},
		{Pre: nand.LevelFraction(8)},
		{Pre: nand.LevelFraction(9), Disch: nand.LevelFraction(1)},
		{Pre: 0.4, Eval: 0.2, Disch: 0.27},
	}
	return conds, reds
}

// TestProfileMatchesModel is the vth-level differential test of the fast
// path: over the full condition × reduction × page grid, every profile
// method must return values bit-identical to the slow Model path.
func TestProfileMatchesModel(t *testing.T) {
	m := NewModel(DefaultParams(), 1)
	conds, reds := profileGrid()
	pages := []PageID{
		{}, {Chip: 3, Block: 17, Page: 5}, {Chip: 159, Block: 3775, Page: 575},
		{Chip: 42, Block: 120, Page: 301}, {Chip: 1, Block: 1, Page: 1},
		{Chip: 77, Block: 2048, Page: 64},
	}
	for _, c := range conds {
		for _, r := range reds {
			p := m.Profile(c, r)
			for _, pg := range pages {
				blockU, pageU, jitterU, sevU := m.pageRand(pg)
				for pt := nand.LSB; pt <= nand.MSB; pt++ {
					if got, want := p.Read(pg, pt), m.Read(pg, c, pt, r); got != want {
						t.Fatalf("%v %+v %v %v: profile Read %+v, model %+v", c, r, pg, pt, got, want)
					}
					for _, step := range []int{0, 1, 7, 20, m.p.MaxLadderSteps} {
						if got, want := p.StepErrors(pg, pt, step), m.StepErrors(pg, c, pt, step, r); got != want {
							t.Fatalf("%v %+v %v %v step %d: profile StepErrors %d, model %d",
								c, r, pg, pt, step, got, want)
						}
					}
					if got, want := p.floorErrors(pt, sevU), m.FloorErrors(pg, c, pt); got != want {
						t.Fatalf("%v %+v %v %v: profile floorErrors %d, model %d", c, r, pg, pt, got, want)
					}
				}
				if got, want := p.pageDrift(blockU, pageU, jitterU), m.PageDrift(pg, c); got != want {
					t.Fatalf("%v %+v %v: profile pageDrift %v, model %v", c, r, pg, got, want)
				}
				if got, want := p.timingPenalty(sevU), m.TimingPenalty(pg, c, r); got != want {
					t.Fatalf("%v %+v %v: profile timingPenalty %d, model %d", c, r, pg, got, want)
				}
			}
			if got, want := p.meanDrift, m.Drift(c); got != want {
				t.Fatalf("%v: profile meanDrift %v, model Drift %v", c, got, want)
			}
		}
	}
}

// TestProfileReadAllocs verifies the fast path's per-read allocation budget:
// the steady-state read loop must not touch the heap at all.
func TestProfileReadAllocs(t *testing.T) {
	m := NewModel(DefaultParams(), 1)
	p := m.Profile(Condition{PEC: 2000, RetentionMonths: 12, TempC: 30}, nand.Reduction{Pre: 0.4})
	pg := PageID{Chip: 3, Block: 17, Page: 5}
	allocs := testing.AllocsPerRun(200, func() {
		_ = p.Read(pg, nand.CSB)
	})
	if allocs != 0 {
		t.Fatalf("profile Read allocates %.1f objects per call, want 0", allocs)
	}
}

// TestStateMatchesSource pins the value-type rng.State API to Source: the
// fast path relies on SeedState/SplitKey/Float64 reproducing the pointer
// API's streams exactly.
func TestStateMatchesSource(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 1 << 63} {
		st := rng.SeedState(seed)
		src := rng.New(seed)
		for i := 0; i < 16; i++ {
			if got, want := st.Float64(), src.Float64(); got != want {
				t.Fatalf("seed %d draw %d: State %v, Source %v", seed, i, got, want)
			}
		}
		child := rng.SeedState(st.SplitKey(99))
		childSrc := src.Split(99)
		for i := 0; i < 4; i++ {
			if got, want := child.Uint64(), childSrc.Uint64(); got != want {
				t.Fatalf("seed %d split draw %d: State %v, Source %v", seed, i, got, want)
			}
		}
	}
}
