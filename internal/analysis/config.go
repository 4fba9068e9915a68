package analysis

import "strings"

// Package scoping is configuration, not annotation: an analyzer that only
// applies to part of the tree carries its package list here, and the list
// is matched against import paths, so whole directories (examples/, cmd/)
// are exempt without a single comment in their sources. Entries are
// module-relative path fragments; PathInList matches them at path-segment
// boundaries and includes subpackages, so "internal/experiments" covers
// internal/experiments/coord, shard, and cellcache.

// DeterminismCriticalPackages lists the packages whose outputs must be
// bit-reproducible from a seed: everything between the V_TH model and the
// canonical sweep CSV. detclock forbids wall-clock reads here. Notably
// absent by design: examples/ (wall-clock timing in demo binaries is
// legitimate) and cmd/ (interactive progress, daemon timeouts).
var DeterminismCriticalPackages = []string{
	"internal/sim",
	"internal/ssd",
	"internal/core",
	"internal/vth",
	"internal/nand",
	"internal/chip",
	"internal/ftl",
	"internal/experiments", // includes coord, shard, cellcache
	"internal/rng",
	"internal/trace",
	"internal/workload",
	"internal/charz",
	"internal/rpt",
	"internal/mathx",
}

// SeededRandExemptPackages lists the only packages allowed to touch
// math/rand's global-state functions. internal/rng is the repo's
// deterministic randomness provider; it currently uses its own xoshiro
// machinery, but it is the one legitimate home for such code.
var SeededRandExemptPackages = []string{
	"internal/rng",
}

// FloatEqPackages lists the numeric packages where a float ==/!= is
// almost always a bug (threshold-voltage math, statistics, simulation
// time). Sentinel comparisons there annotate //lint:floateq.
var FloatEqPackages = []string{
	"internal/vth",
	"internal/mathx",
	"internal/sim",
	"internal/rpt",
}

// PathMatches reports whether importPath falls under entry: equal to it,
// or containing it as a full slash-delimited run of path segments
// (prefix, suffix, or interior), so "internal/sim" matches both
// "readretry/internal/sim" and the fixture path "internal/sim/sub" but
// never "internal/simulator".
func PathMatches(importPath, entry string) bool {
	return importPath == entry ||
		strings.HasPrefix(importPath, entry+"/") ||
		strings.HasSuffix(importPath, "/"+entry) ||
		strings.Contains(importPath, "/"+entry+"/")
}

// PathInList reports whether importPath matches any entry.
func PathInList(importPath string, list []string) bool {
	for _, e := range list {
		if PathMatches(importPath, e) {
			return true
		}
	}
	return false
}
