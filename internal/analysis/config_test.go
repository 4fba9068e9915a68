package analysis

import "testing"

func TestPathMatches(t *testing.T) {
	cases := []struct {
		path, entry string
		want        bool
	}{
		{"internal/sim", "internal/sim", true},
		{"readretry/internal/sim", "internal/sim", true},
		{"internal/sim/sub", "internal/sim", true},
		{"readretry/internal/sim/sub", "internal/sim", true},
		// Segment boundaries: no partial-word matches.
		{"internal/simulator", "internal/sim", false},
		{"readretry/internal/simulator", "internal/sim", false},
		{"myinternal/sim", "internal/sim", false},
		// Subpackage coverage.
		{"readretry/internal/experiments/coord", "internal/experiments", true},
		{"readretry/internal/experiments/cellcache", "internal/experiments", true},
		// Unrelated paths.
		{"readretry/examples/quickstart", "internal/sim", false},
		{"readretry/cmd/repro", "internal/sim", false},
	}
	for _, c := range cases {
		if got := PathMatches(c.path, c.entry); got != c.want {
			t.Errorf("PathMatches(%q, %q) = %v, want %v", c.path, c.entry, got, c.want)
		}
	}
}

func TestFloatEqScope(t *testing.T) {
	for _, path := range []string{
		"readretry/internal/vth", "readretry/internal/mathx",
		"readretry/internal/sim", "readretry/internal/rpt",
	} {
		if !PathInList(path, FloatEqPackages) {
			t.Errorf("%s must be float-eq restricted", path)
		}
	}
	for _, path := range []string{
		"readretry/internal/experiments",
	} {
		if PathInList(path, FloatEqPackages) {
			t.Errorf("%s must not be float-eq restricted", path)
		}
	}
}

func TestSeededRandExemption(t *testing.T) {
	if !PathInList("readretry/internal/rng", SeededRandExemptPackages) {
		t.Error("internal/rng must be exempt from seededrand")
	}
	if PathInList("readretry/internal/experiments/coord", SeededRandExemptPackages) {
		t.Error("coord must not be exempt from seededrand")
	}
}
