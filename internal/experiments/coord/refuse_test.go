package coord

// experiments.NewGrid is the one check of whether a sweep is valid, so an
// invalid sweep is refused the same way in process and over the wire, and
// what one /submit can make the coordinator spend is bounded by it.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"readretry/internal/experiments"
	"readretry/internal/experiments/cellcache"
	"readretry/internal/ssd"
)

// touchCache records whether a sweep looked up any cell: RunSweep consults
// its cache before each cell runs.
type touchCache struct{ touched atomic.Bool }

func (c *touchCache) Get(string) (cellcache.Measurement, bool) {
	c.touched.Store(true)
	return cellcache.Measurement{}, false
}
func (c *touchCache) Put(string, cellcache.Measurement) { c.touched.Store(true) }

// TestInvalidSweepsRefusedEverywhere sends each invalid sweep through
// RunSweep, which must refuse it before any cell runs, and through
// /submit, which must answer 400.
func TestInvalidSweepsRefusedEverywhere(t *testing.T) {
	vs := experiments.Figure14Variants()
	named := func(name string) []experiments.Variant { return []experiments.Variant{vs[0], {Name: name}} }
	cases := map[string]struct {
		mutate   func(*experiments.Config)
		variants []experiments.Variant
	}{
		"no variants":              {func(*experiments.Config) {}, []experiments.Variant{}},
		"unknown workload":         {func(c *experiments.Config) { c.Workloads = []string{"stg_0", "nope"} }, nil},
		"repeated workload":        {func(c *experiments.Config) { c.Workloads = []string{"stg_0", "stg_0"} }, nil},
		"repeated variant":         {func(*experiments.Config) {}, []experiments.Variant{vs[0], vs[3], vs[0]}},
		"empty variant name":       {func(*experiments.Config) {}, named("")},
		"comma in variant name":    {func(*experiments.Config) {}, named("a,b")},
		"quote in variant name":    {func(*experiments.Config) {}, named(`a"b`)},
		"newline in variant name":  {func(*experiments.Config) {}, named("a\nb")},
		"return in variant name":   {func(*experiments.Config) {}, named("a\rb")},
		"zero in Temps":            {func(c *experiments.Config) { c.Temps = []float64{25, 0} }, nil},
		"repeated temperature":     {func(c *experiments.Config) { c.Temps = []float64{25, 25} }, nil},
		"temperature above range":  {func(c *experiments.Config) { c.Temps = []float64{200} }, nil},
		"empty device in axis":     {func(c *experiments.Config) { c.Devices = []ssd.Device{ssd.DeviceTLC, ""} }, nil},
		"unknown device in axis":   {func(c *experiments.Config) { c.Devices = []ssd.Device{"mlc8"} }, nil},
		"repeated device":          {func(c *experiments.Config) { c.Devices = []ssd.Device{ssd.DeviceTLC, ssd.DeviceTLC} }, nil},
		"unknown condition device": {func(c *experiments.Config) { c.Conditions[0].Device = "mlc8" }, nil},
		"pinned temperature and Temps": {func(c *experiments.Config) {
			c.Conditions[0].TempC = 55
			c.Temps = []float64{25}
		}, nil},
		"pinned device and Devices": {func(c *experiments.Config) {
			c.Conditions[0].Device = ssd.DeviceQLC16
			c.Devices = []ssd.Device{ssd.DeviceTLC}
		}, nil},
		"negative PEC":               {func(c *experiments.Config) { c.Conditions[0].PEC = -1 }, nil},
		"negative retention":         {func(c *experiments.Config) { c.Conditions[0].Months = -5 }, nil},
		"temperature below range":    {func(c *experiments.Config) { c.Conditions[0].TempC = -41 }, nil},
		"repeated condition":         {func(c *experiments.Config) { c.Conditions = append(c.Conditions, c.Conditions[0]) }, nil},
		"invalid template":           {func(c *experiments.Config) { c.Base.GCThresholdBlocks = 0 }, nil},
		"template temperature":       {func(c *experiments.Config) { c.Base.TempC = 300 }, nil},
		"reduced reads and Baseline": {func(c *experiments.Config) { c.Base.ReducedRegularReads = true }, nil},
	}
	srv := httptest.NewServer(NewServer(New(Options{Clock: newFakeClock()})).Handler())
	defer srv.Close()
	for name, tc := range cases {
		cfg := testConfig(7)
		tc.mutate(&cfg)
		variants := tc.variants
		if variants == nil {
			variants = testVariants()
		}

		cache := &touchCache{}
		run := cfg
		run.Parallelism, run.Cache = 1, cache
		run.Progress = func(int, int) { cache.touched.Store(true) }
		if _, err := experiments.RunSweep(context.Background(), run, variants); err == nil {
			t.Errorf("%s: RunSweep accepted it", name)
		}
		if cache.touched.Load() {
			t.Errorf("%s: RunSweep started a cell before refusing", name)
		}

		body, err := json.Marshal(submitRequest{Spec: SpecOf(cfg, variants), Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		if status, e := postRaw(t, srv.URL, "/submit", body); status != http.StatusBadRequest {
			t.Errorf("%s: /submit answered %d (%s), want 400", name, status, e.Error)
		}
	}
}

// TestSubmitOfManyConditionsIsPrompt: a 32,000-condition submission, a
// body of about 1.4 MB, is checked in time linear in its lists; a
// pairwise repeat scan would cost seconds here.
func TestSubmitOfManyConditionsIsPrompt(t *testing.T) {
	cfg := testConfig(7)
	cfg.Conditions = make([]experiments.Condition, 32000)
	for i := range cfg.Conditions {
		cfg.Conditions[i] = experiments.Condition{PEC: i, Months: 1}
	}
	body, err := json.Marshal(submitRequest{Spec: SpecOf(cfg, testVariants()), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(New(Options{Clock: newFakeClock()})).Handler())
	defer srv.Close()
	start := time.Now()
	status, e := postRaw(t, srv.URL, "/submit", body)
	elapsed := time.Since(start)
	if status != http.StatusOK {
		t.Fatalf("/submit answered %d: %s", status, e.Error)
	}
	if elapsed > 4*time.Second {
		t.Errorf("/submit of %d conditions took %v, want well under 4s", len(cfg.Conditions), elapsed)
	}
}

// TestSubmitRefusesOverCapGrid: a spec of 20,000 variant names over the
// default 12 workloads and 10 conditions would be 2.4M cells. /submit
// answers 400 without allocating anything per cell (one int per cell alone
// would be 19 MB).
func TestSubmitRefusesOverCapGrid(t *testing.T) {
	cfg := experiments.DefaultConfig()
	variants := make([]experiments.Variant, 20000)
	for i := range variants {
		variants[i] = experiments.Variant{Name: fmt.Sprintf("v%d", i)}
	}
	body, err := json.Marshal(submitRequest{Spec: SpecOf(cfg, variants), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(New(Options{Clock: newFakeClock()})).Handler())
	defer srv.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	status, e := postRaw(t, srv.URL, "/submit", body)
	runtime.ReadMemStats(&after)
	if status != http.StatusBadRequest {
		t.Fatalf("/submit answered %d (%s), want 400", status, e.Error)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16<<20 {
		t.Errorf("refusing a 2.4M-cell grid allocated %d MB", alloc>>20)
	}
}
