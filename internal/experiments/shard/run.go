package shard

import (
	"context"
	"errors"
	"fmt"

	"readretry/internal/experiments"
	"readretry/internal/experiments/cellcache"
)

// Run executes one shard: the manifest's cells, through the existing sweep
// machinery (experiments.RunCells — same worker pool, shared traces,
// cfg.Cache consulted first and filled after each miss). Before any
// simulation it re-derives the configuration's hash and refuses a manifest
// planned for a different sweep, or by an engine that derives cache keys
// differently (the hash covers the key schema), so mixing up flags between
// processes fails loudly instead of merging garbage. Give a shard a
// cellcache disk tier to make it resumable: re-running a crashed shard
// performs only the simulations the crash lost.
//
// dir is vestigial — shards no longer write files — and must be empty; a
// non-empty dir is an error rather than a silently ignored request.
//
// The returned record's measurements are raw; normalization happens once,
// in Assemble, over the full grid.
func Run(ctx context.Context, cfg experiments.Config, variants []experiments.Variant, m Manifest, dir string) (*Record, error) {
	if dir != "" {
		return nil, errors.New("shard: Run no longer writes a shard directory; pass dir \"\" and deliver the record to a coordinator")
	}
	g, err := experiments.NewGrid(cfg, variants)
	if err != nil {
		return nil, err
	}
	hash, err := experiments.ConfigHash(cfg, g)
	if err != nil {
		return nil, err
	}
	if m.ConfigHash != hash {
		return nil, fmt.Errorf("shard: manifest %d/%d was planned for config %.12s…, this configuration hashes to %.12s…; re-plan or fix the flags",
			m.Index, m.Count, m.ConfigHash, hash)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}

	idxs := m.Cells(g.Total())
	cells, err := experiments.RunCells(ctx, cfg, g, idxs)
	if err != nil {
		return nil, err
	}
	rec := &Record{Manifest: m, Results: make([]CellResult, len(cells))}
	for i, idx := range idxs {
		rec.Results[i] = CellResult{
			Index: idx,
			Measurement: cellcache.Measurement{
				Mean: cells[i].Mean, MeanRead: cells[i].MeanRead,
				P99Read: cells[i].P99Read, RetrySteps: cells[i].RetrySteps,
				Retry: cells[i].Retry,
			},
		}
	}
	return rec, nil
}
