package chip

import (
	"testing"

	"readretry/internal/nand"
	"readretry/internal/vth"
)

// TestFastPathMatchesModel drives a chip through the state transitions that
// re-key the memoized profile — SetCondition, SET FEATURE, RESET — and
// checks after each that the profile path returns exactly what the direct
// model path does for every read-facing method.
func TestFastPathMatchesModel(t *testing.T) {
	geom := nand.Geometry{
		Dies: 1, PlanesPerDie: 2, BlocksPerPlane: 8, PagesPerBlock: 12,
		PageSize: 16 * 1024, CellBits: 3,
	}
	model := vth.NewModel(vth.DefaultParams(), 3)
	fast, err := New(geom, nand.DefaultTiming(), model, 5)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := New(geom, nand.DefaultTiming(), model, 5)
	if err != nil {
		t.Fatal(err)
	}
	slow.SetFastPath(false)

	addrs := []nand.Address{
		{Plane: 0, Block: 0, Page: 0},
		{Plane: 0, Block: 3, Page: 7},
		{Plane: 1, Block: 7, Page: 11},
		{Plane: 1, Block: 2, Page: 4},
	}
	compare := func(stage string, tempC float64) {
		t.Helper()
		for _, a := range addrs {
			if got, want := fast.ReadRetry(a, tempC), slow.ReadRetry(a, tempC); got != want {
				t.Fatalf("%s: ReadRetry(%v, %g) fast %+v, slow %+v", stage, a, tempC, got, want)
			}
			if got, want := fast.StepErrors(a, tempC, 2), slow.StepErrors(a, tempC, 2); got != want {
				t.Fatalf("%s: StepErrors(%v) fast %d, slow %d", stage, a, got, want)
			}
		}
	}

	apply := func(f func(c *Chip)) {
		f(fast)
		f(slow)
	}

	compare("fresh", 30)
	apply(func(c *Chip) { c.SetCondition(2000, 12, 30) })
	compare("aged", 30)
	compare("aged hot", 85)

	var reg nand.FeatureRegister
	reg.Set(6, 0, 1)
	apply(func(c *Chip) { c.SetFeature(reg) })
	compare("reduced timing", 30)

	apply(func(c *Chip) { c.ResetFeature() })
	compare("default timing restored", 30)
}

// TestSetConditionTemperatureInvalidatesProfile changes ONLY the operating
// temperature through SetCondition and checks that the next read at the
// resident temperature matches the direct model path — i.e. the profile
// built at the old ambient is never reused. The memo keys each profile by
// its whole condition, temperature included, so the change reaches the
// read with nothing to invalidate.
func TestSetConditionTemperatureInvalidatesProfile(t *testing.T) {
	model := vth.NewModel(vth.DefaultParams(), 7)
	fast, err := New(nand.DefaultGeometry(), nand.DefaultTiming(), model, 2)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := New(nand.DefaultGeometry(), nand.DefaultTiming(), model, 2)
	if err != nil {
		t.Fatal(err)
	}
	slow.SetFastPath(false)
	a := nand.Address{Plane: 1, Block: 17, Page: 9}

	fast.SetCondition(2000, 12, 85)
	slow.SetCondition(2000, 12, 85)
	hot := fast.ReadRetry(a, fast.Temp()) // primes the 85 °C profile
	if fast.profiles.Len() != 1 {
		t.Fatalf("%d profiles after one read, want 1", fast.profiles.Len())
	}

	fast.SetCondition(2000, 12, 30) // temperature-only change
	slow.SetCondition(2000, 12, 30)
	if fast.Temp() != 30 {
		t.Fatalf("resident temperature = %g after SetCondition, want 30", fast.Temp())
	}
	cold := fast.ReadRetry(a, fast.Temp())
	if want := slow.ReadRetry(a, slow.Temp()); cold != want {
		t.Fatalf("read after temperature change = %+v, direct model says %+v (stale profile?)", cold, want)
	}
	// The test has power only if the ambient actually moves the outcome at
	// this condition: cold reads add floor errors at (2K, 12 mo).
	if cold == hot {
		t.Fatalf("30 °C and 85 °C reads identical (%+v); temperature not reaching the model", cold)
	}
	if fast.profiles.Len() != 2 {
		t.Fatalf("%d profiles after reads at two temperatures, want 2", fast.profiles.Len())
	}
}

// TestProfileMemoization checks that repeated reads under one condition reuse
// a single profile and that the memo holds one entry per distinct
// (condition, reduction) pair rather than growing per read.
func TestProfileMemoization(t *testing.T) {
	model := vth.NewModel(vth.DefaultParams(), 1)
	c, err := New(nand.DefaultGeometry(), nand.DefaultTiming(), model, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.SetCondition(1000, 3, 30)
	a := nand.Address{Plane: 0, Block: 1, Page: 2}
	for i := 0; i < 50; i++ {
		c.ReadRetry(a, 30)
	}
	if c.profiles.Len() != 1 {
		t.Fatalf("profiles after repeated identical reads = %d, want 1", c.profiles.Len())
	}
	var reg nand.FeatureRegister
	reg.Set(6, 0, 0)
	c.SetFeature(reg)
	c.ReadRetry(a, 30)
	c.ResetFeature()
	c.ReadRetry(a, 30)
	if c.profiles.Len() != 2 {
		t.Fatalf("profiles after feature toggle = %d, want 2", c.profiles.Len())
	}
}

// TestFastReadRetryAllocatesNothing pins the fast read path's 0 allocs/op
// contract (BenchmarkReadPath/fast at the repository root): once a chip's
// condition and feature register are set, ReadRetry over a spread of
// addresses allocates nothing.
func TestFastReadRetryAllocatesNothing(t *testing.T) {
	model := vth.NewModel(vth.DefaultParams(), 1)
	geom := nand.DefaultGeometry()
	c, err := New(geom, nand.DefaultTiming(), model, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.SetFastPath(true)
	c.SetCondition(2000, 12, 30)
	var reg nand.FeatureRegister
	reg.Set(6, 0, 0)
	c.SetFeature(reg)
	addrs := make([]nand.Address, 64)
	for i := range addrs {
		addrs[i] = nand.Address{
			Plane: i % geom.PlanesPerDie,
			Block: (i * 37) % geom.BlocksPerPlane,
			Page:  (i * 11) % geom.PagesPerBlock,
		}
	}
	// One run reads every address, so AllocsPerRun's per-run average
	// cannot round a once-per-sweep allocation down to 0; its warm-up run
	// touches each address first.
	allocs := testing.AllocsPerRun(100, func() {
		for _, a := range addrs {
			c.ReadRetry(a, 30)
		}
	})
	if allocs != 0 {
		t.Fatalf("fast ReadRetry made %v allocs per %d reads, want 0", allocs, len(addrs))
	}
}
