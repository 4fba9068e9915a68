package experiments

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"readretry/internal/experiments/cellcache"
)

// simCounter is a mutex-guarded counter safe to increment from the
// engine's worker goroutines under -race.
type simCounter struct {
	mu sync.Mutex
	n  int
}

func (c *simCounter) inc() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

func (c *simCounter) value() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// runCounting runs the sweep and returns the result plus how many actual
// simulations it performed (cache hits excluded), via the injected
// simulation counter.
func runCounting(t *testing.T, cfg Config, variants []Variant) (*Result, int) {
	t.Helper()
	var n simCounter
	cfg.simHook = n.inc
	res, err := RunSweep(context.Background(), cfg, variants)
	if err != nil {
		t.Fatal(err)
	}
	return res, n.value()
}

func TestStreamingCSVIdenticalAcrossParallelism(t *testing.T) {
	stream := func(parallelism int) []byte {
		cfg := tinySweepConfig(7)
		cfg.Parallelism = parallelism
		var buf bytes.Buffer
		sink, err := NewCSVSinkFor(cfg, &buf)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Sink = sink
		if _, err := RunSweep(context.Background(), cfg, Figure14Variants()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := stream(1)
	for _, p := range []int{2, 5, 8} {
		if got := stream(p); !bytes.Equal(got, serial) {
			t.Fatalf("parallelism %d: streamed CSV differs from serial", p)
		}
	}
}

func TestSinkObservesCanonicalOrder(t *testing.T) {
	cfg := tinySweepConfig(7)
	cfg.Parallelism = 8
	var seen []Cell
	var indices []int
	var total int
	cfg.Sink = CellSinkFunc(func(c Cell, index, n int) error {
		seen = append(seen, c) // serialized by the engine
		indices = append(indices, index)
		total = n
		return nil
	})
	res, err := RunSweep(context.Background(), cfg, Figure14Variants())
	if err != nil {
		t.Fatal(err)
	}
	if total != len(res.Cells) {
		t.Errorf("sink saw total %d, want %d", total, len(res.Cells))
	}
	if !reflect.DeepEqual(seen, res.Cells) {
		t.Fatal("sink cells differ from Result.Cells (order or content)")
	}
	for i, idx := range indices {
		if idx != i {
			t.Fatalf("sink indices not canonical: %v", indices)
		}
	}
	// Streamed cells carry their final Normalized values.
	for _, c := range seen {
		if c.Config == "Baseline" && c.Normalized != 1 {
			t.Fatalf("streamed Baseline cell not normalized: %+v", c)
		}
	}
}

func TestSinkErrorAbortsSweep(t *testing.T) {
	cfg := tinySweepConfig(7)
	cfg.Parallelism = 4
	boom := errors.New("sink exploded")
	calls, afterError := 0, 0
	cfg.Sink = CellSinkFunc(func(Cell, int, int) error {
		calls++ // serialized by the engine
		if calls > 3 {
			afterError++
		}
		if calls >= 3 {
			return boom
		}
		return nil
	})
	_, err := RunSweep(context.Background(), cfg, Figure14Variants())
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the sink's error", err)
	}
	// The failure is latched: in-flight workers completing after the
	// error must not re-emit the failed stripe's prefix to the sink.
	if afterError != 0 {
		t.Fatalf("sink called %d more times after its error", afterError)
	}
}

func TestCacheSecondRunPerformsZeroSimulations(t *testing.T) {
	cfg := tinySweepConfig(7)
	cfg.Parallelism = 4
	cfg.Cache = cellcache.Memory()

	cold, sims := runCounting(t, cfg, Figure14Variants())
	if want := len(cold.Cells); sims != want {
		t.Fatalf("cold run simulated %d cells, want %d", sims, want)
	}

	warm, sims := runCounting(t, cfg, Figure14Variants())
	if sims != 0 {
		t.Fatalf("warm run simulated %d cells, want 0", sims)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("warm (fully cached) result differs from the cold run")
	}
}

func TestCacheMatchesUncachedResult(t *testing.T) {
	cfg := tinySweepConfig(7)
	cfg.Parallelism = 4

	plain, err := RunSweep(context.Background(), cfg, Figure14Variants())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cache = cellcache.Memory()
	cached, err := RunSweep(context.Background(), cfg, Figure14Variants())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, cached) {
		t.Fatal("cache-enabled run differs from plain run")
	}
}

func TestCacheChangedSeedOrConfigMisses(t *testing.T) {
	cfg := tinySweepConfig(7)
	cfg.Parallelism = 4
	cfg.Cache = cellcache.Memory()
	if _, sims := runCounting(t, cfg, Figure14Variants()); sims == 0 {
		t.Fatal("cold run performed no simulations")
	}
	grid := len(cfg.Workloads) * len(cfg.Conditions) * len(Figure14Variants())

	seedChanged := cfg
	seedChanged.Seed = 8
	if _, sims := runCounting(t, seedChanged, Figure14Variants()); sims != grid {
		t.Errorf("changed seed: %d simulations, want %d (all misses)", sims, grid)
	}

	devChanged := cfg
	devChanged.Base.TempC = 55
	if _, sims := runCounting(t, devChanged, Figure14Variants()); sims != grid {
		t.Errorf("changed device config: %d simulations, want %d (all misses)", sims, grid)
	}

	// The original key set is untouched by the variations above.
	if _, sims := runCounting(t, cfg, Figure14Variants()); sims != 0 {
		t.Errorf("original config after variations: %d simulations, want 0", sims)
	}
}

func TestCacheGrownGridOnlySimulatesNewCells(t *testing.T) {
	cfg := tinySweepConfig(7)
	cfg.Parallelism = 4
	cfg.Cache = cellcache.Memory()
	if _, sims := runCounting(t, cfg, Figure14Variants()); sims == 0 {
		t.Fatal("cold run performed no simulations")
	}

	grown := cfg
	grown.Conditions = append(append([]Condition{}, cfg.Conditions...), Condition{PEC: 1000, Months: 3})
	added := len(grown.Workloads) * 1 * len(Figure14Variants())
	if _, sims := runCounting(t, grown, Figure14Variants()); sims != added {
		t.Errorf("grown grid simulated %d cells, want only the %d new ones", sims, added)
	}
}

func TestCacheSharedAcrossVariantRosters(t *testing.T) {
	// Figure 15's Baseline and NoRR columns are the same cells as
	// Figure 14's (keys hash scheme+PSO, not the display name), so a
	// Figure 15 run over a Figure 14-warmed cache only simulates the two
	// PSO columns.
	cfg := tinySweepConfig(7)
	cfg.Parallelism = 4
	cfg.Cache = cellcache.Memory()
	if _, sims := runCounting(t, cfg, Figure14Variants()); sims == 0 {
		t.Fatal("cold run performed no simulations")
	}
	psoOnly := 2 * len(cfg.Workloads) * len(cfg.Conditions)
	if _, sims := runCounting(t, cfg, Figure15Variants()); sims != psoOnly {
		t.Errorf("fig15 over fig14 cache simulated %d cells, want %d (PSO columns only)", sims, psoOnly)
	}
}

func TestCacheDiskTierPersists(t *testing.T) {
	dir := t.TempDir()
	cfg := tinySweepConfig(7)
	cfg.Parallelism = 4

	disk1, err := cellcache.Disk(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cache = disk1
	cold, sims := runCounting(t, cfg, Figure14Variants())
	if sims == 0 {
		t.Fatal("cold run performed no simulations")
	}

	// A fresh Cache instance over the same directory — as a new process
	// would construct — serves everything from disk.
	disk2, err := cellcache.Disk(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cache = disk2
	warm, sims := runCounting(t, cfg, Figure14Variants())
	if sims != 0 {
		t.Fatalf("disk-warm run simulated %d cells, want 0", sims)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("disk-cached result differs from the cold run")
	}
}

func TestNormalizeStripeZeroReference(t *testing.T) {
	stripe := []Cell{
		{Config: "Baseline", Mean: 0},
		{Config: "PR2", Mean: 120},
		{Config: "NoRR", Mean: 80},
	}
	normalizeStripe(stripe, "Baseline")
	for _, c := range stripe {
		if c.Normalized != 0 {
			t.Errorf("%s: Normalized = %v, want the 0 sentinel", c.Config, c.Normalized)
		}
	}

	// Absent reference: same defined behavior.
	stripe = []Cell{{Config: "PR2", Mean: 120}, {Config: "NoRR", Mean: 80}}
	normalizeStripe(stripe, "Baseline")
	for _, c := range stripe {
		if c.Normalized != 0 {
			t.Errorf("absent reference: %s Normalized = %v, want 0", c.Config, c.Normalized)
		}
	}

	// And the guarded values survive the CSV encoder as finite numbers.
	var buf bytes.Buffer
	res := &Result{Cells: stripe, Configs: []string{"PR2", "NoRR"}}
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"NaN", "Inf", "+Inf", "-Inf"} {
		if strings.Contains(buf.String(), bad) {
			t.Fatalf("CSV leaked %s:\n%s", bad, buf.String())
		}
	}
}
