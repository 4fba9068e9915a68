package ssd

import (
	"runtime"
	"testing"

	"readretry/internal/core"
	"readretry/internal/trace"
	"readretry/internal/workload"
)

// TestTxnsRecycleExactlyOnce checks the transaction conservation law on
// the fast path, through runs that collect garbage, suspend programs and
// erases, and fall back from AR²: afterwards no die queue or die holds a
// txn, the free lists hold every txn and every host request the run made
// exactly once (a double free shows as a duplicate), and no die's phase
// epoch ever went back.
func TestTxnsRecycleExactlyOnce(t *testing.T) {
	base := tinyConfig()
	base.PEC, base.RetentionMonths = 2000, 6
	cold := base
	cold.Scheme = core.PnAR2
	cold.PEC, cold.RetentionMonths, cold.TempC = 2500, 18, 25
	cases := []struct {
		name    string
		cfg     Config
		recs    []trace.Record
		reached func(st *Stats) bool
	}{
		{"write-heavy", base, workloadTrace(t, base, "stg_0", 1500, 1500),
			func(st *Stats) bool { return st.GCJobs > 0 && st.Erases > 0 && st.Suspensions > 0 }},
		{"cold-fallback", cold, fastpathTrace(t, cold, 600),
			func(st *Stats) bool { return st.AR2Fallbacks > 0 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dev, err := New(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := dev.start(c.recs); err != nil {
				t.Fatal(err)
			}
			epochs := make([]int, len(dev.dies))
			for dev.eng.Step() {
				for i, d := range dev.dies {
					if d.phase.epoch < epochs[i] {
						t.Fatalf("die %d: phase epoch fell from %d to %d at %v",
							i, epochs[i], d.phase.epoch, dev.eng.Now())
					}
					epochs[i] = d.phase.epoch
				}
			}
			st, err := dev.finish()
			if err != nil {
				t.Fatal(err)
			}
			if !c.reached(st) {
				t.Fatalf("run never reached the paths it is meant to cover: %+v", st)
			}
			for i, d := range dev.dies {
				if n := d.readQ.len() + d.writeQ.len() + d.gcQ.len(); n != 0 || d.cur != nil {
					t.Errorf("die %d still holds txns: %d queued, cur %v", i, n, d.cur)
				}
			}
			free := make(map[*txn]bool, len(dev.txnFree))
			for _, tx := range dev.txnFree {
				if free[tx] {
					t.Fatalf("txn %p is on the free list twice", tx)
				}
				free[tx] = true
			}
			if len(free) != dev.txns {
				t.Errorf("free list holds %d of the %d txns the run made", len(free), dev.txns)
			}
			freeReqs := make(map[*request]bool, len(dev.reqFree))
			for _, req := range dev.reqFree {
				if freeReqs[req] {
					t.Fatalf("request %p is on the free list twice", req)
				}
				freeReqs[req] = true
			}
			if len(freeReqs) != dev.reqs {
				t.Errorf("free list holds %d of the %d requests the run made", len(freeReqs), dev.reqs)
			}
		})
	}
}

// TestWarmRunAllocations pins the allocation-free device run. Once a
// warm-up run has built the shared plans and the RPT profile, a fresh
// device's Run on the BenchmarkSweepCell trace allocates only per-run
// state: the arrival order, the queues and the txn, request and executor
// free lists at their peak depth, the table leaves it writes, and one
// reverse map per block it opens, grown as the block fills. So one bound
// holds at 2,500 and at 10,000 requests, with retry metrics off and on.
func TestWarmRunAllocations(t *testing.T) {
	cfg := ExperimentConfig()
	cfg.PEC, cfg.RetentionMonths = 2000, 12
	cfg.Scheme = core.PnAR2
	spec, err := workload.ByName("YCSB-C")
	if err != nil {
		t.Fatal(err)
	}
	spec.FootprintPages = cfg.TotalPages() * 6 / 10
	spec.AvgIOPS = 1200 / spec.AvgPagesPerRequest()
	const limit = 1000
	for _, metrics := range []bool{false, true} {
		cfg.RetryMetrics = metrics
		for _, n := range []int{2500, 10000} {
			recs := workload.NewGenerator(spec, 7).Generate(n)
			run := func() uint64 {
				dev, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				_, err = dev.Run(recs)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				return after.Mallocs - before.Mallocs
			}
			run() // warm-up
			if got := run(); got > limit {
				t.Errorf("warm Run of %d requests (RetryMetrics %v) made %d allocations, want ≤ %d", n, metrics, got, limit)
			}
		}
	}
}

// TestGCHeavyRunAllocations is TestWarmRunAllocations on a write-heavy
// trace that keeps garbage collection busy: a run's allocations must not
// grow with its GC jobs. Each job's valid LPNs land in one reused buffer,
// an erased block keeps its reverse map for its next life, and requests
// and txns come from free lists, so one bound holds at two trace lengths
// whose GC job counts differ more than 3×.
func TestGCHeavyRunAllocations(t *testing.T) {
	cfg := tinyConfig()
	cfg.PEC, cfg.RetentionMonths = 2000, 6
	const limit = 1000
	for _, metrics := range []bool{false, true} {
		cfg.RetryMetrics = metrics
		var jobs []int64
		for _, n := range []int{4000, 8000} {
			recs := workloadTrace(t, cfg, "stg_0", n, 1500)
			run := func() (uint64, *Stats) {
				dev, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				st, err := dev.Run(recs)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				return after.Mallocs - before.Mallocs, st
			}
			run() // warm-up
			got, st := run()
			if got > limit {
				t.Errorf("warm Run of %d stg_0 requests (%d GC jobs, RetryMetrics %v) made %d allocations, want ≤ %d",
					n, st.GCJobs, metrics, got, limit)
			}
			jobs = append(jobs, st.GCJobs)
		}
		if jobs[0] == 0 || jobs[1] < 3*jobs[0] {
			t.Fatalf("GC jobs %v: the longer trace must run at least 3× the shorter one's", jobs)
		}
	}
}
