package coord

// Incremental-merge identity: however records arrive — out of canonical
// order, one shard at a time, under a foreign partition — the
// coordinator's merge must equal the single-process RunSweep, through
// reflect.DeepEqual and CSV bytes.

import (
	"context"
	"testing"

	"readretry/internal/experiments"
	"readretry/internal/experiments/shard"
)

// TestIncrementalMergeOutOfOrder delivers a 4-shard plan's records in
// reverse canonical order, asserting after each delivery that the job
// finalizes only on the last one, then compares the incremental result
// against the unsharded sweep.
func TestIncrementalMergeOutOfOrder(t *testing.T) {
	cfg := e2eConfig(7)
	variants := testVariants()
	unsharded, err := experiments.RunSweep(context.Background(), cfg, variants)
	if err != nil {
		t.Fatal(err)
	}

	p, err := shard.NewPlan(cfg, variants, 4)
	if err != nil {
		t.Fatal(err)
	}
	records := make([]*shard.Record, len(p.Shards))
	for i, m := range p.Shards {
		rec, err := shard.Run(context.Background(), cfg, variants, m, "")
		if err != nil {
			t.Fatal(err)
		}
		records[i] = rec
	}

	c := New(Options{Clock: newFakeClock()})
	j, err := c.Submit(SpecOf(cfg, variants), len(p.Shards))
	if err != nil {
		t.Fatal(err)
	}
	// The coordinator accepts records by content, so no lease is needed to
	// exercise the merge order; deliveries use a fabricated lease ID.
	for i := len(records) - 1; i >= 0; i-- {
		if _, err := j.Result(); err == nil {
			t.Fatalf("job reported complete with %d shards still undelivered", i+1)
		}
		dup, err := c.Complete("lease-injected", records[i])
		if err != nil {
			t.Fatalf("delivering shard %d out of order: %v", i, err)
		}
		if dup {
			t.Fatalf("shard %d flagged duplicate on first delivery", i)
		}
		st, _ := c.Status(j.ID)
		if want := len(records) - i; st.ShardsDone != want {
			t.Fatalf("after %d deliveries: %d shards done", want, st.ShardsDone)
		}
	}
	incremental, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "incremental-vs-unsharded", unsharded, incremental)
}

// TestIncrementalMergeForeignPartition: records cut under a different
// shard count than the coordinator's own plan (a client that partitioned
// the sweep itself) still merge cell-wise to the identical result — they
// just cannot tick the planned shards' done counters until the cells
// complete the grid.
func TestIncrementalMergeForeignPartition(t *testing.T) {
	cfg := e2eConfig(7)
	variants := testVariants()
	unsharded, err := experiments.RunSweep(context.Background(), cfg, variants)
	if err != nil {
		t.Fatal(err)
	}

	// The coordinator plans 2 shards; the records arrive from a 3-way
	// partition of the same sweep.
	c := New(Options{Clock: newFakeClock()})
	j, err := c.Submit(SpecOf(cfg, variants), 2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := shard.NewPlan(cfg, variants, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range p.Shards {
		rec, err := shard.Run(context.Background(), cfg, variants, m, "")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Complete("lease-injected", rec); err != nil {
			t.Fatalf("foreign-partition record %d: %v", m.Index, err)
		}
	}
	res, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "foreign-partition", unsharded, res)
}
