package coord

// The coordinator's mutex guards queue state only: a submission's key
// derivation and store probes, and a delivery's store writes, run outside
// it, so a slow store or a MaxCells grid cannot stall the leases,
// heartbeats and status polls that keep workers' shards alive.

import (
	"sync"
	"testing"
	"time"

	"readretry/internal/experiments/cellcache"
	"readretry/internal/experiments/shard"
)

// gateCache is a cell store whose Get and Put park while its gate is
// shut, announcing the first parked call on entered.
type gateCache struct {
	c       cellcache.Cache
	entered chan struct{}

	mu   sync.Mutex
	gate chan struct{} // nil while open; closed to release the parked calls
}

func newGateCache() *gateCache {
	return &gateCache{c: cellcache.Memory(), entered: make(chan struct{}, 1)}
}

func (g *gateCache) shut() {
	g.mu.Lock()
	g.gate = make(chan struct{})
	g.mu.Unlock()
}

func (g *gateCache) open() {
	g.mu.Lock()
	if g.gate != nil {
		close(g.gate)
		g.gate = nil
	}
	g.mu.Unlock()
}

func (g *gateCache) wait() {
	g.mu.Lock()
	gate := g.gate
	g.mu.Unlock()
	if gate == nil {
		return
	}
	select {
	case g.entered <- struct{}{}:
	default:
	}
	<-gate
}

func (g *gateCache) Get(key string) (cellcache.Measurement, bool) {
	g.wait()
	return g.c.Get(key)
}

func (g *gateCache) Put(key string, m cellcache.Measurement) {
	g.wait()
	g.c.Put(key, m)
}

// within fails the test unless fn returns within d.
func within(t *testing.T, d time.Duration, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not return within %v while a store call was blocked", what, d)
	}
}

// TestBlockedStoreLeavesQueueResponsive parks the store inside a Submit's
// probe and then inside a Complete's write, and requires Lease, Heartbeat
// and Status to answer while each call is parked.
func TestBlockedStoreLeavesQueueResponsive(t *testing.T) {
	const wait = 5 * time.Second
	store := newGateCache()
	t.Cleanup(store.open)
	c := New(Options{Clock: newFakeClock(), LeaseTTL: 10 * time.Second, Cache: store})
	j, err := c.Submit(SpecOf(testConfig(7), testVariants()), 2)
	if err != nil {
		t.Fatal(err)
	}
	held, ok := c.Lease("w")
	if !ok {
		t.Fatal("no lease")
	}
	// The measurements are never assembled (the job's other shard stays
	// undelivered), so placeholders serve.
	rec := &shard.Record{Manifest: held.Manifest}
	for _, idx := range held.Manifest.Cells(j.grid.Total()) {
		rec.Results = append(rec.Results, shard.CellResult{Index: idx, Measurement: cellcache.Measurement{Mean: float64(idx + 1)}})
	}

	// Each phase leaves a pending shard: the first job's second, then the
	// parked submission's first.
	queueAnswers := func(phase string) {
		t.Helper()
		within(t, wait, phase+": Lease", func() {
			if _, ok := c.Lease("w2"); !ok {
				t.Errorf("%s: no lease granted", phase)
			}
		})
		within(t, wait, phase+": Heartbeat", func() {
			if _, err := c.Heartbeat(held.ID); err != nil {
				t.Errorf("%s: Heartbeat: %v", phase, err)
			}
		})
		within(t, wait, phase+": Status", func() {
			if _, ok := c.Status(j.ID); !ok {
				t.Errorf("%s: Status lost job", phase)
			}
		})
	}
	parked := func(phase string, call func() error) {
		t.Helper()
		store.shut()
		errc := make(chan error, 1)
		go func() { errc <- call() }()
		select {
		case <-store.entered:
		case <-time.After(wait):
			t.Fatalf("%s never reached the store", phase)
		}
		queueAnswers(phase)
		store.open()
		select {
		case err := <-errc:
			if err != nil {
				t.Fatalf("%s: %v", phase, err)
			}
		case <-time.After(wait):
			t.Fatalf("%s did not finish once the store was released", phase)
		}
	}

	parked("Submit probing the store", func() error {
		_, err := c.Submit(SpecOf(testConfig(8), testVariants()), 2)
		return err
	})
	parked("Complete writing the store", func() error {
		_, err := c.Complete(held.ID, rec)
		return err
	})
	if st, _ := c.Status(j.ID); st.CellsDone != len(rec.Results) || st.ShardsDone != 1 {
		t.Fatalf("after the delivery: %+v, want %d cells and 1 shard done", st, len(rec.Results))
	}
}
