package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"readretry/internal/ssd"
	"readretry/internal/workload"
)

// Grid is the resolved canonical cell-index space of a sweep: the effective
// workload roster, the condition grid (Conditions expanded across Temps),
// and the variant columns, all validated. Cell index idx decodes
// workload-major, then condition, then variant — exactly the order
// Result.Cells holds and the CSV encoders emit — so a Grid is the shared
// coordinate system that makes independently produced cell measurements
// mergeable: any process that builds the same Grid from the same Config
// assigns every cell the same index. The shard subsystem
// (internal/experiments/shard) partitions this index space across
// processes and re-sequences their outputs by it.
type Grid struct {
	Workloads []string
	Conds     []Condition
	Variants  []Variant
}

// MaxCells caps the cells one grid may hold, about 1,700 times the
// 600-cell Figure 14 grid. NewGrid refuses a larger grid before building
// any of it, so a small submission cannot make a process allocate state
// for millions of cells.
const MaxCells = 1 << 20

// NewGrid resolves a sweep's cell-index space and is the one check of
// whether a sweep is valid, so a configuration fails identically whether
// it is about to be run, sharded, merged or submitted. It checks the
// grid's shape — at least one variant, every variant name fit for a CSV
// row, known workload and device names, no Temps entry equal to the 0
// sentinel, no condition pinning a temperature or device an axis also
// sets, no value listed twice, at most MaxCells cells — and then the
// physics of every cell: the device configuration each (condition,
// variant) pair runs (cellConfig) must pass ssd.Config.Validate.
func NewGrid(cfg Config, variants []Variant) (*Grid, error) {
	if len(variants) == 0 {
		return nil, errors.New("experiments: sweep needs at least one variant")
	}
	wls := cfg.Workloads
	if wls == nil {
		wls = workload.Names()
	}
	conds := cfg.Conditions
	if conds == nil {
		conds = DefaultConfig().Conditions
	}
	// Count before crossing the axes, in a product that cannot overflow.
	// An empty roster counts as one workload: the physics check below
	// still visits every (condition, variant) pair.
	cells := 1
	for _, n := range []int{max(len(wls), 1), len(conds), max(len(cfg.Temps), 1), max(len(cfg.Devices), 1), len(variants)} {
		if n > 0 && cells > MaxCells/n {
			return nil, fmt.Errorf("experiments: grid of %d workloads × %d conditions × %d temperatures × %d devices × %d variants exceeds %d cells",
				len(wls), len(conds), len(cfg.Temps), len(cfg.Devices), len(variants), MaxCells)
		}
		cells *= n
	}

	for _, wl := range wls {
		if _, err := workload.ByName(wl); err != nil {
			return nil, err
		}
	}
	names := make(map[string]bool, len(variants))
	for _, v := range variants {
		// A variant name is printed raw into every CSV row.
		if v.Name == "" || strings.ContainsAny(v.Name, ",\"\r\n") {
			return nil, fmt.Errorf("experiments: variant name %q must be non-empty and free of commas, quotes and line breaks", v.Name)
		}
		if names[v.Name] {
			return nil, fmt.Errorf("experiments: variants list %s twice", v.Name)
		}
		names[v.Name] = true
	}
	for _, t := range cfg.Temps {
		if t == 0 {
			return nil, errors.New("experiments: Temps must not contain 0 (the \"device default\" sentinel); set Base.TempC to change the default temperature instead")
		}
	}
	for _, d := range cfg.Devices {
		if !d.Valid() { // "" included: it is the "Base device" sentinel
			return nil, fmt.Errorf("experiments: Devices contains %q, not a named preset (supported: %v)", d, ssd.Devices())
		}
	}
	for _, c := range conds {
		// Crossing an axis overwrites each condition's TempC or Device; a
		// condition that already pins one would be silently re-measured
		// elsewhere, so the ambiguous combination is rejected rather than
		// guessed at.
		if len(cfg.Temps) > 0 && c.TempC != 0 {
			return nil, fmt.Errorf("experiments: condition %s pins a temperature while Temps is set; use one axis or the other", c)
		}
		if len(cfg.Devices) > 0 && c.Device != "" {
			return nil, fmt.Errorf("experiments: condition %s pins a device while Devices is set; use one axis or the other", c)
		}
		// Apply leaves an unknown preset's config untouched, so the
		// physics check below would not catch a misspelt name.
		if c.Device != "" && !c.Device.Valid() {
			return nil, fmt.Errorf("experiments: condition %s names unknown device %q (supported: %v)", c, c.Device, ssd.Devices())
		}
	}
	// A repeated value would run every one of its cells twice, write each
	// row twice and count it twice in every reduction average.
	if w, ok := firstRepeat(wls); ok {
		return nil, fmt.Errorf("experiments: Workloads lists %s twice", w)
	}
	if t, ok := firstRepeat(cfg.Temps); ok {
		return nil, fmt.Errorf("experiments: Temps lists %g°C twice", t)
	}
	if d, ok := firstRepeat(cfg.Devices); ok {
		return nil, fmt.Errorf("experiments: Devices lists %q twice", d)
	}
	if c, ok := firstRepeat(conds); ok {
		return nil, fmt.Errorf("experiments: Conditions lists %s twice", c)
	}

	conds = CrossDevices(CrossTemps(conds, cfg.Temps), cfg.Devices)
	for _, c := range conds {
		for _, v := range variants {
			if err := cellConfig(cfg.Base, c, v).Validate(); err != nil {
				return nil, fmt.Errorf("experiments: cell %s %s: %w", c, v.Name, err)
			}
		}
	}
	return &Grid{Workloads: wls, Conds: conds, Variants: variants}, nil
}

// firstRepeat returns the first element of xs that an earlier element
// equals, in one pass over a set of the elements seen so far.
func firstRepeat[T comparable](xs []T) (T, bool) {
	seen := make(map[T]bool, len(xs))
	for _, x := range xs {
		if seen[x] {
			return x, true
		}
		seen[x] = true
	}
	var zero T
	return zero, false
}

// Total returns the number of cells in the grid.
func (g *Grid) Total() int { return len(g.Workloads) * len(g.Conds) * len(g.Variants) }

// Stride returns the cells per (workload, condition) stripe — the variant
// count. Normalization operates stripe-wise; index i belongs to stripe
// i/Stride().
func (g *Grid) Stride() int { return len(g.Variants) }

// CellAt decodes a canonical cell index into its coordinates. idx must be
// in [0, Total()).
func (g *Grid) CellAt(idx int) (wl string, cond Condition, v Variant) {
	perWorkload := len(g.Conds) * len(g.Variants)
	return g.Workloads[idx/perWorkload],
		g.Conds[idx%perWorkload/len(g.Variants)],
		g.Variants[idx%len(g.Variants)]
}

// Label renders a cell index as the human-readable coordinate the figures
// use ("stg_0 2K/6mo PnAR2") — how diagnostics name a cell.
func (g *Grid) Label(idx int) string {
	wl, cond, v := g.CellAt(idx)
	return fmt.Sprintf("%s %s %s", wl, cond, v.Name)
}

// checkIndex validates one canonical index against the grid.
func (g *Grid) checkIndex(idx int) error {
	if idx < 0 || idx >= g.Total() {
		return fmt.Errorf("experiments: cell index %d outside grid [0, %d)", idx, g.Total())
	}
	return nil
}

// ReferenceVariant returns the normalization column of a variant roster:
// the variant named "Baseline" if present, otherwise the first one. It is
// the reference RunSweep normalizes stripes against, exported so a merge
// of independently produced cells can apply the identical normalization.
func ReferenceVariant(variants []Variant) string {
	for _, v := range variants {
		if v.Name == "Baseline" {
			return v.Name
		}
	}
	return variants[0].Name
}

// NormalizeCells applies the engine's post-hoc normalization over a
// complete grid in canonical order: cells is partitioned into
// len(variants)-sized (workload, condition) stripes and each stripe is
// normalized against the roster's reference variant, exactly as RunSweep
// does stripe-by-stripe as they complete. Merging shard outputs calls this
// once over the merged set, which is what makes a merged Result
// bit-identical to a single-process run.
func NormalizeCells(cells []Cell, variants []Variant) error {
	if len(variants) == 0 {
		return errors.New("experiments: normalization needs at least one variant")
	}
	stride := len(variants)
	if len(cells)%stride != 0 {
		return fmt.Errorf("experiments: %d cells do not divide into %d-variant stripes", len(cells), stride)
	}
	reference := ReferenceVariant(variants)
	for base := 0; base < len(cells); base += stride {
		normalizeStripe(cells[base:base+stride], reference)
	}
	return nil
}

// RunCells executes only the given canonical cell indices of the sweep's
// grid — the shard entry point. Cells are returned in the order of
// indices, raw: Normalized is left zero, because a partial grid has no
// complete stripes to normalize against (merge the full set and apply
// NormalizeCells). Everything else matches RunSweep: the same worker pool
// (cfg.Parallelism), one shared trace per workload, cfg.Cache consulted
// first and filled after each miss (giving shard processes sharing a disk
// tier crash-resumability for free), and cfg.Progress observing completed
// cells against len(indices). cfg.Sink is ignored — streaming is defined
// over the canonical order of a full grid. g must be the grid NewGrid
// resolved from cfg.
func RunCells(ctx context.Context, cfg Config, g *Grid, indices []int) ([]Cell, error) {
	for _, idx := range indices {
		if err := g.checkIndex(idx); err != nil {
			return nil, err
		}
	}
	out := make([]Cell, len(indices))
	err := runGridCells(ctx, cfg, g, indices, func(pos, idx int, c Cell) error {
		out[pos] = c // each pos is delivered exactly once
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
