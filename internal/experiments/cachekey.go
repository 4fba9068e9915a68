package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// cacheKeySchema versions the key derivation. Bump it whenever the cached
// payload or the meaning of a hashed field changes, so an on-disk tier
// written by an older engine can never satisfy a newer lookup. v2 added
// the condition's operating temperature to the hashed fields: a v1 (2-D)
// entry, which never saw a temperature, must not alias any cell of a 3-D
// grid — not even the default-temperature ones, since "default" now means
// "the Base.TempC this key already hashes" rather than "the only
// possibility". v3 added the condition's device preset for the same
// reason: a v2 entry never saw a device, so it must not alias any cell of
// a device-axis grid, including the unset-device cells. v4 added the
// variant's history-policy flag to the hashed fields *and* grew the cached
// payload (Measurement.Retry): a v3 entry neither distinguishes a
// history-seeded column from its plain counterpart nor carries the retry
// digest a metrics-enabled sweep renders, so it must satisfy no v4 lookup.
const cacheKeySchema = "readretry-cell-v4"

// cellKey derives the content address of one sweep cell: a lowercase hex
// SHA-256 over everything the cell's measurement is a function of —
// the workload name, the operating condition (PEC, retention age, the
// cell's temperature override — 0 when it inherits Base.TempC — and the
// cell's device preset, empty when it runs the Base template), the
// variant's behavior (scheme, PSO, and the history policy; the display
// Name is deliberately excluded, so renaming a column keeps its cells),
// the trace shape (Seed, Requests, IOPS), and the full device template. The device config is
// folded in via its JSON encoding, which is deterministic for ssd.Config's
// plain value fields; any field change — geometry, timing, ECC, model
// params, scheduler toggles — therefore changes the key.
func cellKey(cfg Config, wl string, cond Condition, v Variant) (string, error) {
	return cellKeyWithSchema(cacheKeySchema, cfg, wl, cond, v)
}

// CellKey exposes the engine's content-address derivation for one sweep
// cell. The coordinator needs it outside the package: it serves cells
// already in the shared cache and stores newly merged ones under exactly
// the keys a worker's engine would use.
func CellKey(cfg Config, wl string, cond Condition, v Variant) (string, error) {
	return cellKey(cfg, wl, cond, v)
}

// ConfigHash fingerprints a sweep's entire cell-index space: the resolved
// workload roster, the resolved condition grid (Temps already crossed in),
// every variant (name, scheme, PSO), the trace shape (Seed, Requests,
// IOPS), the device template, and the cache-key schema. Two processes that
// compute equal hashes decode every canonical cell index to the identical
// measurement — the compatibility check that makes shard manifests and
// completion records safe to merge. Unlike CellKey, the variant *names*
// are hashed too: they appear in Result.Configs and the CSV, so renaming a
// column changes what a merged result looks like even though the
// underlying measurements are the same. g must be the grid NewGrid
// resolved from cfg, so a caller that holds one resolves the sweep once.
func ConfigHash(cfg Config, g *Grid) (string, error) {
	dev, err := json.Marshal(cfg.Base)
	if err != nil {
		return "", fmt.Errorf("experiments: hashing device config: %w", err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00grid\x00", cacheKeySchema)
	for _, wl := range g.Workloads {
		fmt.Fprintf(h, "w\x00%s\x00", wl)
	}
	for _, c := range g.Conds {
		fmt.Fprintf(h, "c\x00%d\x00%g\x00%g\x00%s\x00", c.PEC, c.Months, c.TempC, c.Device)
	}
	for _, v := range g.Variants {
		fmt.Fprintf(h, "v\x00%s\x00%d\x00%t\x00%t\x00", v.Name, v.Scheme, v.PSO, v.History)
	}
	fmt.Fprintf(h, "t\x00%d\x00%d\x00%g\x00", cfg.Seed, cfg.Requests, cfg.IOPS)
	h.Write(dev)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// CellKeys returns CellKey of every cell of g, in index order. It encodes
// the device template once for the grid, where a CellKey call encodes it
// for its one cell, about three quarters of that call's cost. g must be the grid
// NewGrid resolved from cfg.
func CellKeys(cfg Config, g *Grid) ([]string, error) {
	dev, err := deviceJSON(cfg)
	if err != nil {
		return nil, err
	}
	keys := make([]string, g.Total())
	for idx := range keys {
		wl, cond, v := g.CellAt(idx)
		keys[idx] = hashCell(cacheKeySchema, dev, cfg, wl, cond, v)
	}
	return keys, nil
}

// cellKeyWithSchema is cellKey with the schema tag injectable, so the
// cross-schema regression tests can derive keys an older engine would
// have written and prove they never satisfy current lookups.
func cellKeyWithSchema(schema string, cfg Config, wl string, cond Condition, v Variant) (string, error) {
	dev, err := deviceJSON(cfg)
	if err != nil {
		return "", err
	}
	return hashCell(schema, dev, cfg, wl, cond, v), nil
}

// deviceJSON encodes the device template a cell key hashes.
func deviceJSON(cfg Config) ([]byte, error) {
	dev, err := json.Marshal(cfg.Base)
	if err != nil {
		return nil, fmt.Errorf("experiments: hashing device config: %w", err)
	}
	return dev, nil
}

// hashCell derives a cell's key from its fields and the encoded device
// template dev.
func hashCell(schema string, dev []byte, cfg Config, wl string, cond Condition, v Variant) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00%d\x00%g\x00%g\x00%s\x00%d\x00%t\x00%t\x00%d\x00%d\x00%g\x00",
		schema, wl, cond.PEC, cond.Months, cond.TempC, cond.Device, v.Scheme, v.PSO, v.History,
		cfg.Seed, cfg.Requests, cfg.IOPS)
	h.Write(dev)
	return hex.EncodeToString(h.Sum(nil))
}
