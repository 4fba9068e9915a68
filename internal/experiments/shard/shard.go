// Package shard turns one sweep into N independently runnable shards and
// assembles their raw measurements back into a single result that is
// byte-identical to a single-process run — the partitioning layer over the
// sweep engine's canonical cell indexing (experiments.Grid).
//
// The lifecycle has three steps:
//
//   - NewPlan (or Partition, over a grid already resolved) splits the
//     canonical cell-index space round-robin into N balanced shards (cell
//     idx goes to shard idx mod N, so the expensive high-PEC stripes at
//     the end of each workload block spread evenly) and describes each as
//     a Manifest: the sweep's config hash and the shard's (index, count),
//     from which Manifest.Cells derives its cell indices.
//   - Run executes one shard's cells through the existing sweep machinery
//     (experiments.RunCells): the same worker pool, shared traces, and
//     per-cell cache, so a shard over a cellcache disk tier persists every
//     finished cell as it lands and resumes across crashes for free. It
//     returns a Record of raw measurements.
//   - Assemble re-sequences a fully covered measurement vector into
//     canonical order and applies the engine's post-hoc normalization once.
//     The coordinator (internal/experiments/coord) calls it when its
//     incremental merge of delivered Records covers the grid.
//
// Raw measurements are what travels between processes; normalization is
// deliberately deferred to assembly because a shard's cells never form
// complete (workload, condition) stripes under round-robin assignment.
package shard

import (
	"fmt"

	"readretry/internal/experiments"
	"readretry/internal/experiments/cellcache"
)

// ManifestVersion is the current manifest/record format version. Readers
// reject anything newer than they understand rather than guessing.
// Version 2 dropped the key schema, the grid size and the explicit cell
// list, all of which the config hash already pins.
const ManifestVersion = 2

// Manifest is the unit of shard work: the sweep it belongs to and its
// place in the round-robin plan. It serializes as JSON (inside a
// coordinator lease); the zero Index/Count shard of a 1-shard plan is a
// valid degenerate case covering the whole grid.
type Manifest struct {
	Version int `json:"version"`
	// ConfigHash fingerprints the full cell-index space, cache-key schema
	// included (experiments.ConfigHash); Run refuses manifests whose hash
	// does not match the configuration it was given.
	ConfigHash string `json:"config_hash"`
	// Index and Count locate this shard in the plan: 0 ≤ Index < Count.
	Index int `json:"shard_index"`
	Count int `json:"shard_count"`
}

// Validate checks what the config hash cannot: that this engine reads the
// manifest's format and that the manifest names a shard, 0 ≤ Index < Count.
func (m Manifest) Validate() error {
	if m.Version > ManifestVersion {
		return fmt.Errorf("shard: manifest version %d is newer than this engine understands (%d)", m.Version, ManifestVersion)
	}
	if m.Count <= 0 || m.Index < 0 || m.Index >= m.Count {
		return fmt.Errorf("shard: manifest index %d of %d out of range", m.Index, m.Count)
	}
	return nil
}

// Cells derives the canonical cell indices the round-robin plan assigns
// this shard in a total-cell grid, ascending: {Index, Index+Count, …} ∩
// [0, total). A manifest that Validate rejects has none. The stride never
// overflows, whatever Index and Count a client sends.
func (m Manifest) Cells(total int) []int {
	if m.Validate() != nil || m.Index >= total {
		return nil
	}
	cells := make([]int, 0, (total-m.Index-1)/m.Count+1)
	for idx := m.Index; ; idx += m.Count {
		cells = append(cells, idx)
		if total-idx <= m.Count {
			return cells
		}
	}
}

// Plan is a full partition of one sweep into shards.
type Plan struct {
	ConfigHash string
	Shards     []Manifest
}

// NewPlan resolves the sweep's grid and partitions it into n shards; see
// Partition.
func NewPlan(cfg experiments.Config, variants []experiments.Variant, n int) (*Plan, error) {
	g, err := experiments.NewGrid(cfg, variants)
	if err != nil {
		return nil, err
	}
	return Partition(cfg, g, n)
}

// Partition splits a resolved grid's canonical cell-index space into n
// round-robin shards: cell idx is assigned to shard idx mod n. The
// partition is deterministic, disjoint, and covering at every n ≥ 1, and
// balanced two ways at once — shard sizes differ by at most one cell, and
// because the canonical order visits conditions in configuration order
// (low PEC and short retention first, the cheap cells), striding by n
// spreads the expensive high-PEC / long-retention cells evenly instead of
// handing the last shard all of them. n larger than the grid simply leaves
// the excess shards empty, which run and merge like any other. g must be
// the grid experiments.NewGrid resolved from cfg; a caller that holds it
// (the coordinator's Submit) resolves the sweep once.
func Partition(cfg experiments.Config, g *experiments.Grid, n int) (*Plan, error) {
	if n <= 0 {
		return nil, fmt.Errorf("shard: plan needs at least 1 shard, got %d", n)
	}
	hash, err := experiments.ConfigHash(cfg, g)
	if err != nil {
		return nil, err
	}
	p := &Plan{ConfigHash: hash}
	for i := 0; i < n; i++ {
		p.Shards = append(p.Shards, Manifest{Version: ManifestVersion, ConfigHash: hash, Index: i, Count: n})
	}
	return p, nil
}

// CellResult pairs one canonical cell index with its raw measurement. The
// receiver derives the cell's cache address from the index itself, so no
// key travels with it.
type CellResult struct {
	Index       int                   `json:"index"`
	Measurement cellcache.Measurement `json:"measurement"`
}

// Record is a shard's completion record: the manifest it executed plus
// every assigned cell's raw measurement, in Manifest.Cells order.
type Record struct {
	Manifest Manifest     `json:"manifest"`
	Results  []CellResult `json:"results"`
}

// Assemble builds the final normalized Result from a fully covered
// measurement vector in canonical order — the last step of the
// coordinator's incremental merge: the cells are decoded from the grid,
// the raw measurements attached, and the engine's post-hoc normalization
// applied exactly once over the whole set, so the Result is
// reflect.DeepEqual (and byte-identical through WriteCSV) to an unsharded
// RunSweep of the same configuration.
func Assemble(g *experiments.Grid, variants []experiments.Variant, got []cellcache.Measurement) (*experiments.Result, error) {
	if len(got) != g.Total() {
		return nil, fmt.Errorf("shard: assembling %d measurements over a %d-cell grid", len(got), g.Total())
	}
	res := &experiments.Result{Cells: make([]experiments.Cell, g.Total())}
	for _, v := range variants {
		res.Configs = append(res.Configs, v.Name)
	}
	for idx := range got {
		wl, cond, v := g.CellAt(idx)
		m := got[idx]
		res.Cells[idx] = experiments.Cell{
			Workload: wl, Cond: cond, Config: v.Name,
			Mean: m.Mean, MeanRead: m.MeanRead,
			P99Read: m.P99Read, RetrySteps: m.RetrySteps,
			Retry: m.Retry,
		}
	}
	if err := experiments.NormalizeCells(res.Cells, variants); err != nil {
		return nil, err
	}
	return res, nil
}
