package experiments

import (
	"context"
	"errors"
	"fmt"
	"slices"

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

// NewGrid resolves and validates a sweep's cell-index space. It performs
// exactly the upfront checks RunSweep does — at least one variant, a known
// workload roster, a meaningful condition grid, well-formed temperature and
// device axes, no axis value listed twice — so an invalid configuration
// fails identically whether it is about to be run, sharded, or merged.
func NewGrid(cfg Config, variants []Variant) (*Grid, error) {
	if len(variants) == 0 {
		return nil, errors.New("experiments: sweep needs at least one variant")
	}
	wls := cfg.Workloads
	if wls == nil {
		wls = workload.Names()
	}
	conds := cfg.conditions()
	// Validate the roster and the condition grid upfront so an unknown
	// workload or a physically meaningless condition (negative PEC or
	// retention age, out-of-range temperature — the vth model would
	// silently accept them) fails before any simulation spends time, and
	// independently of worker scheduling.
	for _, wl := range wls {
		if _, err := workload.ByName(wl); err != nil {
			return nil, err
		}
	}
	for _, t := range cfg.Temps {
		if t == 0 {
			return nil, errors.New("experiments: Temps must not contain 0 (the \"device default\" sentinel); set Base.TempC to change the default temperature instead")
		}
	}
	// A repeated axis value would run every one of its cells twice, write
	// each row twice and count it twice in every reduction average.
	if t, ok := firstRepeat(cfg.Temps); ok {
		return nil, fmt.Errorf("experiments: Temps lists %g°C twice", t)
	}
	if c, ok := firstRepeat(cfg.Conditions); ok {
		return nil, fmt.Errorf("experiments: Conditions lists %s twice", c)
	}
	if len(cfg.Temps) > 0 {
		// Crossing overwrites each condition's TempC; a condition that
		// already pins one would be silently re-measured elsewhere, so the
		// ambiguous combination is rejected rather than guessed at.
		for _, c := range cfg.Conditions {
			if c.TempC != 0 {
				return nil, fmt.Errorf("experiments: condition %s pins a temperature while Temps is set; use one axis or the other", c)
			}
		}
	}
	for _, d := range cfg.Devices {
		if d == "" {
			return nil, errors.New("experiments: Devices must not contain \"\" (the \"Base device\" sentinel); name the preset explicitly (e.g. ssd.DeviceTLC)")
		}
		if !d.Valid() {
			return nil, fmt.Errorf("experiments: Devices contains unknown device %q (supported: %v)", d, ssd.Devices())
		}
	}
	if d, ok := firstRepeat(cfg.Devices); ok {
		return nil, fmt.Errorf("experiments: Devices lists %q twice", d)
	}
	if len(cfg.Devices) > 0 {
		// Same ambiguity as the temperature axis: crossing overwrites each
		// condition's Device.
		for _, c := range cfg.Conditions {
			if c.Device != "" {
				return nil, fmt.Errorf("experiments: condition %s pins a device while Devices is set; use one axis or the other", c)
			}
		}
	}
	for _, c := range conds {
		if err := c.Validate(); err != nil {
			return nil, err
		}
	}
	return &Grid{Workloads: wls, Conds: conds, Variants: variants}, nil
}

// firstRepeat returns the first element of xs that an earlier element
// equals.
func firstRepeat[T comparable](xs []T) (T, bool) {
	for i, x := range xs {
		if slices.Contains(xs[:i], x) {
			return x, true
		}
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
// over the canonical order of a full grid.
func RunCells(ctx context.Context, cfg Config, variants []Variant, indices []int) ([]Cell, error) {
	g, err := NewGrid(cfg, variants)
	if err != nil {
		return nil, err
	}
	for _, idx := range indices {
		if err := g.checkIndex(idx); err != nil {
			return nil, err
		}
	}
	out := make([]Cell, len(indices))
	err = runGridCells(ctx, cfg, g, indices, func(pos, idx int, c Cell) error {
		out[pos] = c // each pos is delivered exactly once
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
