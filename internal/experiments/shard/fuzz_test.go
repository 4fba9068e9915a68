package shard

// Malformed-input fuzzing for shard manifests, which cross a trust
// boundary inside every coordinator lease. Whatever bytes arrive —
// truncated JSON, wrong types, hostile indices — decoding plus validation
// must return an error or a clean rejection, never panic. (Completion
// records are fuzzed where they are accepted: the coordinator's
// /complete endpoint.) The seed corpus runs on every plain `go test`;
// `go test -fuzz` explores further.

import (
	"encoding/json"
	"testing"

	"readretry/internal/experiments"
)

// fuzzGrid resolves the small reference grid the validators check
// manifests against. (The property tests' helpers live in the external
// shard_test package; this file needs the unexported validate, so it
// builds its own.)
func fuzzGrid(f *testing.F) *experiments.Grid {
	f.Helper()
	cfg := experiments.QuickConfig()
	cfg.Workloads = []string{"stg_0", "YCSB-C"}
	cfg.Conditions = []experiments.Condition{{PEC: 2000, Months: 6}}
	cfg.Requests = 300
	cfg.Seed = 7
	vs := experiments.Figure14Variants()
	g, err := experiments.NewGrid(cfg, []experiments.Variant{vs[0], vs[3]})
	if err != nil {
		f.Fatal(err)
	}
	return g
}

func manifestSeeds(f *testing.F, g *experiments.Grid) {
	f.Helper()
	valid, err := json.Marshal(Manifest{
		Version: ManifestVersion, ConfigHash: "deadbeef", KeySchema: "k",
		Index: 0, Count: 2, TotalCells: g.Total(), Cells: []int{0, 2},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])                              // truncated mid-object
	f.Add([]byte(`{"version":"one","cells":"all"}`))         // wrong types
	f.Add([]byte(`{"version":1,"cells":[9999999999,-5,0]}`)) // hostile indices
	f.Add([]byte(`{"shard_index":7,"shard_count":2}`))       // index out of range
	f.Add([]byte(`[1,2,3]`))                                 // wrong top-level shape
	f.Add([]byte(`null`))                                    //
	f.Add([]byte(``))                                        // empty body
	f.Add([]byte(`{"total_cells":18446744073709551616}`))    // integer overflow
}

// FuzzManifestDecode: arbitrary bytes through the manifest decode +
// validate path. The only acceptable outcomes are a validated manifest or
// an error.
func FuzzManifestDecode(f *testing.F) {
	g := fuzzGrid(f)
	manifestSeeds(f, g)
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Manifest
		if err := json.Unmarshal(data, &m); err != nil {
			return // rejected at decode — fine
		}
		_ = m.validate(g) // must not panic, error or not
	})
}
