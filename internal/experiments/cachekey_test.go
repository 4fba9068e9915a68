package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"readretry/internal/experiments/cellcache"
	"readretry/internal/ssd"
)

func mustKey(t *testing.T, cfg Config, wl string, cond Condition, v Variant) string {
	t.Helper()
	key, err := cellKey(cfg, wl, cond, v)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// TestCellKeyIncludesTemperature: two cells that differ only in the
// condition's operating temperature must have distinct content addresses,
// and the "device default" sentinel must differ from every explicit
// temperature (even the one numerically equal to Base.TempC — the sentinel
// cell's identity is "whatever the template says", which the key's device
// hash already pins).
func TestCellKeyIncludesTemperature(t *testing.T) {
	cfg := tinySweepConfig(7)
	v := Figure14Variants()[0]
	base := Condition{PEC: 2000, Months: 6}
	seen := map[string]float64{}
	for _, temp := range []float64{0, 25, 30, 55, 85} {
		c := base
		c.TempC = temp
		key := mustKey(t, cfg, "stg_0", c, v)
		if prev, ok := seen[key]; ok {
			t.Fatalf("temperatures %g and %g share cell key %s", prev, temp, key)
		}
		seen[key] = temp
	}
}

// v1CellKey replicates the pre-temperature ("readretry-cell-v1") key
// derivation exactly as PR 2 shipped it: no TempC field, v1 schema tag.
func v1CellKey(t *testing.T, cfg Config, wl string, cond Condition, v Variant) string {
	t.Helper()
	dev, err := json.Marshal(cfg.Base)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00%d\x00%g\x00%d\x00%t\x00%d\x00%d\x00%g\x00",
		"readretry-cell-v1", wl, cond.PEC, cond.Months, v.Scheme, v.PSO,
		cfg.Seed, cfg.Requests, cfg.IOPS)
	h.Write(dev)
	return hex.EncodeToString(h.Sum(nil))
}

// TestSchemaBumpInvalidatesPreTemperatureEntries poisons a disk cache with
// entries stored under the v1 (2-D) keys of every cell in the grid and
// proves none of them satisfies a v2 lookup: the sweep must simulate every
// cell from scratch rather than serve a pre-temperature measurement — the
// aliasing the schema bump exists to prevent.
func TestSchemaBumpInvalidatesPreTemperatureEntries(t *testing.T) {
	cfg := tinySweepConfig(7)
	cfg.Parallelism = 4
	cache, err := cellcache.Disk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	poison := cellcache.Measurement{Mean: 1, MeanRead: 1, P99Read: 1, RetrySteps: 1}
	for _, wl := range cfg.Workloads {
		for _, cond := range cfg.Conditions {
			for _, v := range Figure14Variants() {
				cache.Put(v1CellKey(t, cfg, wl, cond, v), poison)
			}
		}
	}
	cfg.Cache = cache
	res, sims := runCounting(t, cfg, Figure14Variants())
	if want := len(res.Cells); sims != want {
		t.Fatalf("sweep over a v1-poisoned cache simulated %d cells, want %d (v1 entries aliased v2 lookups)", sims, want)
	}
	for _, c := range res.Cells {
		if c.Mean == poison.Mean {
			t.Fatalf("cell %+v served the poisoned v1 measurement", c)
		}
	}
	// The schema-versioned key itself must differ from its v1 counterpart
	// for every cell, not just happen to miss.
	for _, wl := range cfg.Workloads {
		for _, cond := range cfg.Conditions {
			for _, v := range Figure14Variants() {
				if mustKey(t, cfg, wl, cond, v) == v1CellKey(t, cfg, wl, cond, v) {
					t.Fatalf("v2 key equals v1 key for (%s, %s, %s)", wl, cond, v.Name)
				}
			}
		}
	}
}

// TestCellKeyIncludesDevice: two cells that differ only in the condition's
// device preset must have distinct content addresses, and the "Base
// device" sentinel must differ from every explicit preset — including
// "tlc", which is behaviorally identical to the sentinel but names a
// different grid coordinate.
func TestCellKeyIncludesDevice(t *testing.T) {
	cfg := tinySweepConfig(7)
	v := Figure14Variants()[0]
	base := Condition{PEC: 2000, Months: 6}
	seen := map[string]ssd.Device{}
	for _, dev := range []ssd.Device{"", ssd.DeviceTLC, ssd.DeviceQLC16} {
		c := base
		c.Device = dev
		key := mustKey(t, cfg, "stg_0", c, v)
		if prev, ok := seen[key]; ok {
			t.Fatalf("devices %q and %q share cell key %s", prev, dev, key)
		}
		seen[key] = dev
	}
}

// v2CellKey replicates the pre-device ("readretry-cell-v2") key derivation
// exactly as PR 4 shipped it: TempC hashed, no Device field, v2 schema tag.
func v2CellKey(t *testing.T, cfg Config, wl string, cond Condition, v Variant) string {
	t.Helper()
	dev, err := json.Marshal(cfg.Base)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00%d\x00%g\x00%g\x00%d\x00%t\x00%d\x00%d\x00%g\x00",
		"readretry-cell-v2", wl, cond.PEC, cond.Months, cond.TempC, v.Scheme, v.PSO,
		cfg.Seed, cfg.Requests, cfg.IOPS)
	h.Write(dev)
	return hex.EncodeToString(h.Sum(nil))
}

// TestSchemaBumpInvalidatesPreDeviceEntries poisons a disk cache with
// entries stored under the v2 (pre-device) keys of every cell in the grid
// and proves none of them satisfies a v3 lookup: the sweep must simulate
// every cell from scratch rather than serve a pre-device measurement,
// exactly as the v1→v2 bump protected the temperature axis.
func TestSchemaBumpInvalidatesPreDeviceEntries(t *testing.T) {
	cfg := tinySweepConfig(7)
	cfg.Parallelism = 4
	cache, err := cellcache.Disk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	poison := cellcache.Measurement{Mean: 1, MeanRead: 1, P99Read: 1, RetrySteps: 1}
	for _, wl := range cfg.Workloads {
		for _, cond := range cfg.Conditions {
			for _, v := range Figure14Variants() {
				cache.Put(v2CellKey(t, cfg, wl, cond, v), poison)
			}
		}
	}
	cfg.Cache = cache
	res, sims := runCounting(t, cfg, Figure14Variants())
	if want := len(res.Cells); sims != want {
		t.Fatalf("sweep over a v2-poisoned cache simulated %d cells, want %d (v2 entries aliased v3 lookups)", sims, want)
	}
	for _, c := range res.Cells {
		if c.Mean == poison.Mean {
			t.Fatalf("cell %+v served the poisoned v2 measurement", c)
		}
	}
	// The schema-versioned key itself must differ from its v2 counterpart
	// for every cell, not just happen to miss.
	for _, wl := range cfg.Workloads {
		for _, cond := range cfg.Conditions {
			for _, v := range Figure14Variants() {
				if mustKey(t, cfg, wl, cond, v) == v2CellKey(t, cfg, wl, cond, v) {
					t.Fatalf("v3 key equals v2 key for (%s, %s, %s)", wl, cond, v.Name)
				}
			}
		}
	}
}

// v3CellKey replicates the pre-history ("readretry-cell-v3") key
// derivation exactly as PR 8 shipped it: Device hashed, no History flag,
// v3 schema tag.
func v3CellKey(t *testing.T, cfg Config, wl string, cond Condition, v Variant) string {
	t.Helper()
	dev, err := json.Marshal(cfg.Base)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00%d\x00%g\x00%g\x00%s\x00%d\x00%t\x00%d\x00%d\x00%g\x00",
		"readretry-cell-v3", wl, cond.PEC, cond.Months, cond.TempC, cond.Device,
		v.Scheme, v.PSO, cfg.Seed, cfg.Requests, cfg.IOPS)
	h.Write(dev)
	return hex.EncodeToString(h.Sum(nil))
}

// TestSchemaBumpInvalidatesPreHistoryEntries poisons a disk cache with
// entries stored under the v3 (pre-history) keys of every cell in the grid
// and proves none satisfies a v4 lookup. v4 entries differ from v3 two
// ways — the variant's History flag joined the hashed fields, and the
// cached payload grew the retry digest — so serving a v3 entry could both
// alias PnAR2 with PnAR2+H and hand a metrics-enabled sweep a digest-less
// measurement.
func TestSchemaBumpInvalidatesPreHistoryEntries(t *testing.T) {
	cfg := tinySweepConfig(7)
	cfg.Parallelism = 4
	cache, err := cellcache.Disk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	variants := append(Figure14Variants(), HistoryVariant())
	poison := cellcache.Measurement{Mean: 1, MeanRead: 1, P99Read: 1, RetrySteps: 1}
	for _, wl := range cfg.Workloads {
		for _, cond := range cfg.Conditions {
			for _, v := range variants {
				cache.Put(v3CellKey(t, cfg, wl, cond, v), poison)
			}
		}
	}
	cfg.Cache = cache
	res, sims := runCounting(t, cfg, variants)
	if want := len(res.Cells); sims != want {
		t.Fatalf("sweep over a v3-poisoned cache simulated %d cells, want %d (v3 entries aliased v4 lookups)", sims, want)
	}
	for _, c := range res.Cells {
		if c.Mean == poison.Mean {
			t.Fatalf("cell %+v served the poisoned v3 measurement", c)
		}
	}
	for _, wl := range cfg.Workloads {
		for _, cond := range cfg.Conditions {
			for _, v := range variants {
				if mustKey(t, cfg, wl, cond, v) == v3CellKey(t, cfg, wl, cond, v) {
					t.Fatalf("v4 key equals v3 key for (%s, %s, %s)", wl, cond, v.Name)
				}
			}
		}
	}
}

// TestCellKeySchemaTagChangesEveryKey guards the bump mechanism itself:
// changing nothing but the schema tag rewrites the whole key space.
func TestCellKeySchemaTagChangesEveryKey(t *testing.T) {
	cfg := tinySweepConfig(7)
	cond := Condition{PEC: 2000, Months: 6, TempC: 25}
	v := Figure14Variants()[2]
	a, err := cellKeyWithSchema("readretry-cell-v2", cfg, "stg_0", cond, v)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cellKeyWithSchema("readretry-cell-v3", cfg, "stg_0", cond, v)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("schema tag does not participate in the key")
	}
}

// TestCellKeysMatchCellKey: the grid-wide derivation, which encodes the
// device template once, must give every cell of a temps × devices grid
// the key CellKey derives for it alone.
func TestCellKeysMatchCellKey(t *testing.T) {
	cfg := tinySweepConfig(7)
	cfg.Temps = []float64{25, 85}
	cfg.Devices = []ssd.Device{ssd.DeviceTLC, ssd.DeviceQLC16}
	g, err := NewGrid(cfg, Figure14Variants())
	if err != nil {
		t.Fatal(err)
	}
	keys, err := CellKeys(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != g.Total() || g.Total() == 0 {
		t.Fatalf("CellKeys returned %d keys for %d cells", len(keys), g.Total())
	}
	seen := map[string]int{}
	for idx, key := range keys {
		wl, cond, v := g.CellAt(idx)
		if want, err := CellKey(cfg, wl, cond, v); err != nil || key != want {
			t.Fatalf("cell %d: CellKeys gave %s, CellKey %s (%v)", idx, key, want, err)
		}
		if prev, ok := seen[key]; ok {
			t.Fatalf("cells %d and %d share key %s", prev, idx, key)
		}
		seen[key] = idx
	}
}
