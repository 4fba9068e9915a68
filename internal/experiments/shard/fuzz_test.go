package shard

// Malformed-input fuzzing for shard manifests, which cross a trust
// boundary inside every coordinator lease. Whatever bytes arrive —
// truncated JSON, wrong types, hostile indices — decoding plus validation
// must return an error or a clean rejection, never panic, and a manifest
// that validates must derive only cells inside the grid. (Completion
// records are fuzzed where they are accepted: the coordinator's
// /complete endpoint.) The seed corpus runs on every plain `go test`;
// `go test -fuzz` explores further.

import (
	"encoding/json"
	"testing"
)

func manifestSeeds(f *testing.F) {
	f.Helper()
	valid, err := json.Marshal(Manifest{Version: ManifestVersion, ConfigHash: "deadbeef", Index: 0, Count: 2})
	if err != nil {
		f.Fatal(err)
	}
	for _, data := range [][]byte{
		valid,
		valid[:len(valid)/2], // truncated mid-object
		[]byte(`{"version":"one","shard_index":"all"}`),                                 // wrong types
		[]byte(`{"shard_index":0,"shard_count":0}`),                                     // no shards
		[]byte(`{"shard_index":-5,"shard_count":2}`),                                    // negative index
		[]byte(`{"shard_index":7,"shard_count":2}`),                                     // index out of range
		[]byte(`{"shard_index":9223372036854775806,"shard_count":9223372036854775807}`), // index past any grid
		[]byte(`{"shard_index":3,"shard_count":9223372036854775807}`),                   // stride that overflows
		[]byte(`{"version":3,"shard_index":0,"shard_count":1}`),                         // newer format
		[]byte(`[1,2,3]`), // wrong top-level shape
		[]byte(`null`),
		[]byte(``), // empty body
		[]byte(`{"shard_count":18446744073709551616}`), // integer overflow
	} {
		f.Add(data, uint16(10))
	}
}

// FuzzManifestDecode: arbitrary bytes through the manifest decode +
// validate path. The only acceptable outcomes are an error, or a
// validated manifest whose derived cells are its round-robin stripe of
// [0, total): ascending by Count from Index, and none outside the grid.
func FuzzManifestDecode(f *testing.F) {
	manifestSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte, total uint16) {
		var m Manifest
		if err := json.Unmarshal(data, &m); err != nil {
			return // rejected at decode — fine
		}
		if m.Validate() != nil {
			return
		}
		cells := m.Cells(int(total))
		for i, idx := range cells {
			if idx < 0 || idx >= int(total) {
				t.Fatalf("%+v derives cell %d outside [0, %d)", m, idx, total)
			}
			if i == 0 && idx != m.Index || i > 0 && idx-cells[i-1] != m.Count {
				t.Fatalf("%+v derives %v, not its round-robin stripe", m, cells)
			}
		}
		if last := len(cells) - 1; m.Index < int(total) && (last < 0 || int(total)-cells[last] > m.Count) {
			t.Fatalf("%+v derives %v, missing cells of a %d-cell grid", m, cells, total)
		}
	})
}
