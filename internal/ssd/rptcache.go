package ssd

import (
	"fmt"

	"readretry/internal/rpt"
	"readretry/internal/vth"
)

// rptMemoKey identifies a profiled RPT exactly: the table is a pure function
// of the error-model parameters, the process-variation seed, and the RPT
// configuration. vth.Params is all scalars and compares directly; rpt.Config
// holds bucket-bound slices, so it enters the key as a canonical fingerprint.
type rptMemoKey struct {
	params vth.Params
	seed   uint64
	cfg    string
}

func rptConfigFingerprint(c rpt.Config) string {
	return fmt.Sprintf("%v|%v|%d|%g|%d",
		c.PECBounds, c.RetBounds, c.SafetyMarginBits, c.ProfileTempC, c.MaxLevel)
}

var rptMemo onceMemo[rptMemoKey, *rpt.Table]

// profiledTable returns the memoized RPT for the model, profiling it on
// first use. Every adaptive-scheme cell of a sweep used to re-profile the
// identical table in ssd.New; now a sweep profiles each distinct
// (parameters, seed, config) once, different keys concurrently, and the
// devices share the (immutable, read-only) result.
func profiledTable(model *vth.Model, params vth.Params, seed uint64, cfg rpt.Config) (*rpt.Table, error) {
	key := rptMemoKey{params: params, seed: seed, cfg: rptConfigFingerprint(cfg)}
	return rptMemo.get(key, func() (*rpt.Table, error) { return rpt.Profile(model, cfg) })
}
