package coord

// Lease-lifecycle property tests on an injectable fake clock. No test in
// this file sleeps: every expiry is driven by advancing fakeClock, so the
// boundary semantics — valid strictly before the deadline, expired exactly
// at it — are pinned to the nanosecond.

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"readretry/internal/experiments"
	"readretry/internal/experiments/shard"
)

// fakeClock is a settable Clock, safe for concurrent use.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)}
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

// testConfig keeps each simulated cell cheap, mirroring the shard suite's
// baseline: a short trace against the experiment-scale device.
func testConfig(seed uint64) experiments.Config {
	cfg := experiments.QuickConfig()
	cfg.Workloads = []string{"stg_0", "YCSB-C"}
	cfg.Conditions = []experiments.Condition{{PEC: 2000, Months: 6}}
	cfg.Requests = 300
	cfg.Seed = seed
	return cfg
}

// testVariants is the smallest roster with a normalization reference and a
// dependent column.
func testVariants() []experiments.Variant {
	vs := experiments.Figure14Variants()
	return []experiments.Variant{vs[0], vs[3]} // Baseline, PnAR2
}

// assertIdentical fails unless got matches want exactly: reflect.DeepEqual
// on the Result and byte-equality through WriteCSV — the same bar the
// shard subsystem holds its merges to.
func assertIdentical(t *testing.T, label string, want, got *experiments.Result) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: Result differs from single-process run", label)
	}
	var a, b bytes.Buffer
	if err := want.WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := got.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("%s: CSV differs from single-process run\nwant:\n%s\ngot:\n%s",
			label, a.String(), b.String())
	}
}

// newTestCoordinator builds a coordinator on a fake clock with one
// submitted job partitioned into shards.
func newTestCoordinator(t *testing.T, shards int) (*Coordinator, *fakeClock, *Job) {
	t.Helper()
	clk := newFakeClock()
	c := New(Options{Clock: clk, LeaseTTL: 10 * time.Second})
	j, err := c.Submit(SpecOf(testConfig(7), testVariants()), shards)
	if err != nil {
		t.Fatal(err)
	}
	return c, clk, j
}

// TestHeartbeatExtendsLease: a lease heartbeated before each deadline
// stays valid indefinitely — here for 10 TTLs, far past the original
// deadline — and each renewal's new deadline is exactly now + TTL.
func TestHeartbeatExtendsLease(t *testing.T) {
	c, clk, _ := newTestCoordinator(t, 2)
	ttl := c.LeaseTTL()
	l, ok := c.Lease("w1")
	if !ok {
		t.Fatal("no lease available on a fresh job")
	}
	if got, want := l.Deadline, clk.Now().Add(ttl); !got.Equal(want) {
		t.Fatalf("initial deadline = %v, want %v", got, want)
	}
	for i := 0; i < 10; i++ {
		clk.Advance(ttl - time.Nanosecond) // the last instant the lease is still valid
		deadline, err := c.Heartbeat(l.ID)
		if err != nil {
			t.Fatalf("heartbeat %d at deadline−1ns: %v", i, err)
		}
		if want := clk.Now().Add(ttl); !deadline.Equal(want) {
			t.Fatalf("heartbeat %d renewed to %v, want %v", i, deadline, want)
		}
	}
}

// TestLeaseExpiresExactlyAtDeadline pins the boundary: a heartbeat one
// nanosecond before the deadline renews; at the deadline itself the lease
// is already expired — no grace — and the shard is immediately
// re-leasable by another worker.
func TestLeaseExpiresExactlyAtDeadline(t *testing.T) {
	c, clk, _ := newTestCoordinator(t, 2)
	ttl := c.LeaseTTL()

	l, ok := c.Lease("w1")
	if !ok {
		t.Fatal("no lease available")
	}
	clk.Advance(ttl) // now == deadline, not a nanosecond more
	if _, err := c.Heartbeat(l.ID); !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("heartbeat exactly at deadline: %v, want ErrLeaseExpired", err)
	}

	// The expired shard is available again, to a different worker.
	l2, ok := c.Lease("w2")
	if !ok {
		t.Fatal("expired shard not re-leasable")
	}
	if l2.Manifest.Index != l.Manifest.Index {
		t.Fatalf("re-lease handed shard %d, want the expired shard %d (submission-order scan)",
			l2.Manifest.Index, l.Manifest.Index)
	}
	if l2.ID == l.ID {
		t.Fatal("re-lease reused the expired lease ID")
	}
	// The dead worker's late heartbeat still reads "expired", never
	// "unknown" — it held a real lease once.
	if _, err := c.Heartbeat(l.ID); !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("late heartbeat on expired lease: %v, want ErrLeaseExpired", err)
	}
	// An ID the coordinator never issued is a different condition.
	if _, err := c.Heartbeat("lease-9999"); !errors.Is(err, ErrUnknownLease) {
		t.Fatalf("heartbeat on fabricated lease: %v, want ErrUnknownLease", err)
	}
}

// TestLeaseExhaustionAndDisjointGrants: while leases are live, every grant
// is a distinct shard, and once all pending shards are out the coordinator
// reports none available rather than double-leasing.
func TestLeaseExhaustionAndDisjointGrants(t *testing.T) {
	c, _, _ := newTestCoordinator(t, 3)
	seen := make(map[int]bool)
	for i := 0; i < 3; i++ {
		l, ok := c.Lease("w")
		if !ok {
			t.Fatalf("lease %d: none available, want 3 distinct shards", i)
		}
		if seen[l.Manifest.Index] {
			t.Fatalf("shard %d leased twice while the first lease is live", l.Manifest.Index)
		}
		seen[l.Manifest.Index] = true
	}
	if _, ok := c.Lease("w"); ok {
		t.Fatal("coordinator granted a fourth lease over a 3-shard plan")
	}
}

// TestLeasesOfFinalizedJobAreDropped: a job can finalize through a
// record cut under another partition, which marks none of its planned
// shards done. The leases still on those shards must go with the job:
// their holders hear "unknown" (and stop simulating a finished sweep), and
// the lease index holds nothing for it.
func TestLeasesOfFinalizedJobAreDropped(t *testing.T) {
	cfg, variants := testConfig(7), testVariants()
	c := New(Options{Clock: newFakeClock()})
	j, err := c.Submit(SpecOf(cfg, variants), 2)
	if err != nil {
		t.Fatal(err)
	}
	var held []string
	for len(held) < 2 {
		l, ok := c.Lease("w")
		if !ok {
			t.Fatalf("lease %d of 2 not granted", len(held)+1)
		}
		held = append(held, l.ID)
	}

	whole, err := shard.NewPlan(cfg, variants, 1)
	if err != nil {
		t.Fatal(err)
	}
	runCfg := cfg
	runCfg.Parallelism = 1
	rec, err := shard.Run(context.Background(), runCfg, variants, whole.Shards[0], "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Complete("", rec); err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	default:
		t.Fatal("a record covering every cell did not finalize the job")
	}

	for _, id := range held {
		if _, err := c.Heartbeat(id); !errors.Is(err, ErrUnknownLease) {
			t.Errorf("heartbeat on %s after its job finalized: %v, want ErrUnknownLease", id, err)
		}
	}
	c.mu.Lock()
	n := len(c.leases)
	c.mu.Unlock()
	if n != 0 {
		t.Fatalf("lease index holds %d entries after its only job finalized, want 0", n)
	}
	checkLeaseInvariants(t, c)
}

// checkLeaseInvariants asserts, under the coordinator's own lock, that the
// lease index and the per-shard state agree: every leased shard of an
// unfinished job maps its lease ID back to that shard, and no index entry
// outlives its job. A shard
// holds one lease by construction, so two live leases on it cannot arise.
// The -race hammer below calls this concurrently with lease traffic.
func checkLeaseInvariants(t *testing.T, c *Coordinator) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, j := range c.order {
		select {
		case <-j.done:
			continue
		default:
		}
		for i, st := range j.shards {
			if st.status != shardLeased {
				continue
			}
			if slot, ok := c.leases[st.leaseID]; !ok || slot.job != j || slot.shard != i {
				t.Errorf("shard %d marked leased by %s, but the index maps it to %+v (present=%v)", i, st.leaseID, slot, ok)
			}
		}
	}
	for id, slot := range c.leases {
		select {
		case <-slot.job.done:
			t.Errorf("lease %s outlived its finalized job", id)
		default:
		}
		if c.jobs[slot.job.ID] != slot.job {
			t.Errorf("lease %s indexes a job the coordinator does not track", id)
		}
	}
}

// TestNoConcurrentLeaseHoldersUnderRace hammers Lease/Heartbeat from many
// goroutines while the clock advances concurrently (so leases expire
// mid-traffic), asserting after every operation that the lease index and
// the shard states agree.
// Run under -race (CI does), this doubles as the data-race proof for the
// coordinator's locking.
func TestNoConcurrentLeaseHoldersUnderRace(t *testing.T) {
	clk := newFakeClock()
	c := New(Options{Clock: clk, LeaseTTL: 10 * time.Second})
	cfg := testConfig(7)
	cfg.Conditions = []experiments.Condition{
		{PEC: 1000, Months: 3}, {PEC: 2000, Months: 6},
	}
	if _, err := c.Submit(SpecOf(cfg, testVariants()), 4); err != nil {
		t.Fatal(err)
	}

	const workers = 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	clockDone := make(chan struct{})

	// Clock driver: march time forward in sub-TTL steps so leases expire
	// mid-traffic. Joined separately from the workers — it runs until
	// they are all done.
	go func() {
		defer close(clockDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			clk.Advance(3 * time.Second)
		}
	}()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var held []string
			for i := 0; i < 200; i++ {
				if rng.Intn(2) == 0 {
					if l, ok := c.Lease("hammer"); ok {
						held = append(held, l.ID)
					}
				} else if len(held) > 0 {
					// A rejected heartbeat is expected here (the clock
					// goroutine expires leases constantly); the property
					// under test is exclusivity, not liveness.
					_, _ = c.Heartbeat(held[rng.Intn(len(held))])
				}
				checkLeaseInvariants(t, c)
			}
		}(w)
	}

	wg.Wait()
	close(stop)
	<-clockDone
	checkLeaseInvariants(t, c)
}
