package ssd

import (
	"testing"

	"readretry/internal/core"
	"readretry/internal/sim"
	"readretry/internal/trace"
	"readretry/internal/workload"
)

// Focused scheduler and resource-arbitration tests complementing the
// end-to-end suite in ssd_test.go.

func TestResourceQueueFIFO(t *testing.T) {
	eng := &sim.Engine{}
	q := &resourceQueue{eng: eng}
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		q.acquire(0, 10*sim.Microsecond, sim.Event(func(sim.Time) { order = append(order, i) }), 0)
	}
	eng.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("resource served out of order: %v", order)
		}
	}
	if eng.Now() != 50*sim.Microsecond {
		t.Errorf("five 10us occupancies should end at 50us, got %v", eng.Now())
	}
	if q.busyTime != 50*sim.Microsecond {
		t.Errorf("busyTime = %v, want 50us", q.busyTime)
	}
}

func TestResourceQueueRespectsRequestTime(t *testing.T) {
	eng := &sim.Engine{}
	q := &resourceQueue{eng: eng}
	var end sim.Time
	eng.Schedule(20*sim.Microsecond, func(now sim.Time) {
		q.acquire(now, 5*sim.Microsecond, sim.Event(func(e sim.Time) { end = e }), 0)
	})
	eng.Run()
	if end != 25*sim.Microsecond {
		t.Errorf("occupancy ended at %v, want 25us", end)
	}
}

func TestEraseSuspendedByRead(t *testing.T) {
	// A GC erase (5 ms) in flight must yield to an arriving read.
	cfg := tinyConfig()
	cfg.PEC, cfg.RetentionMonths = 0, 0
	dev, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Force a GC erase on die 0 by directly enqueueing the transaction.
	d := dev.dies[0]
	block, _, ok := dev.flash.Victim(0, 0, nil)
	if ok {
		t.Skip("fresh FTL should have no victim; test relies on manual erase txn")
	}
	_ = block
	dev.eng.Schedule(0, func(now sim.Time) { enqueueErase(t, dev, d, emptyBlock(dev), now) })
	// A read arrives 1 ms into the 5 ms erase.
	var readDone sim.Time
	dev.eng.Schedule(sim.Millisecond, func(now sim.Time) {
		req := &request{arrival: now, lpn: 0, pages: 1}
		req.remaining = 1
		if _, okk := dev.flash.Lookup(0); !okk {
			dev.flash.Precondition(0)
		}
		tx := dev.newTxn(txnRead)
		tx.lpn, tx.req = 0, req
		dev.enqueue(d, tx, now)
	})
	dev.eng.Run()
	readDone = dev.eng.Now()
	// With suspension: read completes ≈1.11 ms, erase resumes and finishes
	// ≈5.09 ms. The read response is tracked in stats; the erase must
	// still complete in full (simulation end ≥ 5 ms).
	if readDone < 5*sim.Millisecond {
		t.Fatalf("erase did not run to completion: end %v", readDone)
	}
	if dev.stats.Suspensions == 0 {
		t.Error("erase was not suspended by the read")
	}
	if resp := dev.stats.Reads.Mean(); resp > 300 {
		t.Errorf("suspended-erase read took %v µs, want ~120 µs", resp)
	}
}

// TestEraseSuspendedTwice: reads arriving at two different instants each
// suspend the same erase. Each suspension retires the pending completion,
// so the erase must finish exactly once, at tBERS plus the die time the two
// reads held.
func TestEraseSuspendedTwice(t *testing.T) {
	cfg := tinyConfig()
	cfg.PEC, cfg.RetentionMonths = 0, 0
	dev, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := dev.dies[0]
	if _, ok := dev.flash.Lookup(0); !ok {
		dev.flash.Precondition(0)
	}
	// The plan a read of LPN 0 on die 0 runs, resolved on a twin device so
	// the measured one is left untouched. Nothing else uses the channel,
	// so each read holds the die for exactly the plan's DieHold.
	twin, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := twin.flash.Lookup(0); !ok {
		twin.flash.Precondition(0)
	}
	ppn, _ := twin.flash.Lookup(0)
	oc := twin.resolveRead(ppn)
	if oc.fallback {
		t.Fatal("fresh page needed a fallback re-read")
	}
	hold := core.BuildPlan(cfg.Scheme, oc.nrr, oc.timings, core.Options{}).DieHold()

	block := emptyBlock(dev)
	dev.eng.Schedule(0, func(now sim.Time) { enqueueErase(t, dev, d, block, now) })
	// The second read arrives after the first has released the die and the
	// erase has resumed.
	arrivals := []sim.Time{sim.Millisecond, 3 * sim.Millisecond}
	if sim.Millisecond+hold >= arrivals[1] {
		t.Fatalf("read die hold %v too long for the schedule", hold)
	}
	for _, at := range arrivals {
		dev.eng.Schedule(at, func(now sim.Time) {
			req := &request{arrival: now, lpn: 0, pages: 1, remaining: 1}
			tx := dev.newTxn(txnRead)
			tx.lpn, tx.req = 0, req
			dev.enqueue(d, tx, now)
		})
	}
	// The erase completes when the FTL takes its block back.
	var doneAt []sim.Time
	erases := dev.flash.BlockErases(d.id, 0, block)
	for dev.eng.Step() {
		if n := dev.flash.BlockErases(d.id, 0, block); n != erases {
			doneAt = append(doneAt, dev.eng.Now())
			erases = n
		}
	}
	if len(doneAt) != 1 {
		t.Fatalf("erase completed %d times, want once", len(doneAt))
	}
	if dev.stats.Suspensions != 2 {
		t.Errorf("Suspensions = %d, want 2", dev.stats.Suspensions)
	}
	if dev.stats.RetiredCompletions != 2 {
		t.Errorf("RetiredCompletions = %d, want 2: each suspension retires one pending completion", dev.stats.RetiredCompletions)
	}
	if want := cfg.Timing.TBers + 2*hold; doneAt[0] != want {
		t.Errorf("erase done at %v, want tBERS %v + 2 × read hold %v = %v",
			doneAt[0], cfg.Timing.TBers, hold, want)
	}
}

// emptyBlock is plane 0's last block, which preconditioning leaves empty.
func emptyBlock(dev *SSD) int { return dev.cfg.Geometry.BlocksPerPlane - 1 }

// enqueueErase queues on die d the GC erase of an empty block of plane 0,
// as a collection job whose victim held no valid pages does.
func enqueueErase(t *testing.T, dev *SSD, d *die, block int, now sim.Time) {
	t.Helper()
	if v := dev.flash.BlockValid(d.id, 0, block); v != 0 {
		t.Fatalf("block %d holds %d valid pages; the erase needs an empty one", block, v)
	}
	d.gc[0] = gcSlot{active: true, block: block}
	dev.enqueueGCErase(d, 0, now)
}

func TestGCChainsWhenPlaneStaysLow(t *testing.T) {
	// Hammer one stripe with writes so a single plane needs several
	// successive collections; each erase must chain the next job.
	cfg := tinyConfig()
	cfg.PEC, cfg.RetentionMonths = 0, 0
	cfg.PreconditionPages = 0
	dev, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stride := int64(cfg.Dies() * cfg.Geometry.PlanesPerDie)
	var recs []trace.Record
	hotSet := int64(cfg.Geometry.PagesPerBlock) * 3
	for i := 0; i < 4000; i++ {
		recs = append(recs, trace.Record{
			Arrival: sim.Time(i) * 300 * sim.Microsecond,
			Offset:  (int64(i) % hotSet) * stride * workload.PageSize,
			Size:    workload.PageSize,
			Write:   true,
		})
	}
	st, err := dev.Run(recs)
	if err != nil {
		t.Fatal(err)
	}
	if st.GCJobs < 2 {
		t.Errorf("expected chained GC jobs, got %d", st.GCJobs)
	}
	if st.Erases != st.GCJobs {
		t.Errorf("every GC job should erase exactly one block: %d jobs, %d erases",
			st.GCJobs, st.Erases)
	}
}

func TestReadsOvertakeQueuedWrites(t *testing.T) {
	// With read priority, a read submitted after a burst of writes on the
	// same die completes before the writes drain.
	cfg := tinyConfig()
	cfg.PEC, cfg.RetentionMonths = 0, 0
	dev, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stride := int64(cfg.Dies() * cfg.Geometry.PlanesPerDie)
	var recs []trace.Record
	for i := 0; i < 10; i++ {
		recs = append(recs, trace.Record{
			Arrival: 0,
			Offset:  int64(i) * stride * workload.PageSize,
			Size:    workload.PageSize,
			Write:   true,
		})
	}
	// The read arrives just after the writes.
	recs = append(recs, trace.Record{
		Arrival: 10 * sim.Microsecond,
		Offset:  100 * stride * workload.PageSize,
		Size:    workload.PageSize,
	})
	st, err := dev.Run(recs)
	if err != nil {
		t.Fatal(err)
	}
	// 10 writes at ~716 µs each serialize to ~7 ms; the read must finish
	// in well under 1 ms (it overtakes and suspends).
	if st.MeanRead() > 1000 {
		t.Errorf("read response %v µs; priority scheduling should keep it under ~1 ms",
			st.MeanRead())
	}
}

func TestChannelContentionSerializesDMA(t *testing.T) {
	// Four dies on one channel issuing simultaneous reads share one bus:
	// their four DMAs serialize even though sensing overlaps.
	cfg := tinyConfig()
	cfg.PEC, cfg.RetentionMonths = 0, 0
	dev, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var recs []trace.Record
	// Dies 0..3 share channel 0 (die = lpn % 16).
	for die := int64(0); die < 4; die++ {
		recs = append(recs, trace.Record{
			Arrival: 0,
			Offset:  die * workload.PageSize,
			Size:    workload.PageSize,
		})
	}
	st, err := dev.Run(recs)
	if err != nil {
		t.Fatal(err)
	}
	// All sensings overlap (~78–117 µs); DMAs serialize at 16 µs each, so
	// the last response lands near tR + 4×tDMA + tECC rather than 4× the
	// whole read. The mean should sit well under a serialized 4×126 µs.
	if st.MeanRead() > 300 {
		t.Errorf("mean read %v µs; channel-level parallelism missing", st.MeanRead())
	}
	if st.ChannelBusyTotal < 4*16*sim.Microsecond {
		t.Errorf("channel busy %v, want ≥ 64 µs of DMA", st.ChannelBusyTotal)
	}
}

func TestStrandedTransactionsDetected(t *testing.T) {
	// Sanity: a normal run never strands transactions (the Run error path).
	cfg := tinyConfig()
	dev, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Run(nil); err != nil {
		t.Errorf("empty run should succeed: %v", err)
	}
}

func TestSchemePlansDriveDieOccupancy(t *testing.T) {
	// PR² holds the die longer than its response time (speculation +
	// reset); the utilization accounting must include that tail.
	cfg := tinyConfig()
	cfg.PEC, cfg.RetentionMonths = 0, 0
	cfg.Scheme = core.PR2
	dev, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := []trace.Record{{Arrival: 0, Offset: 0, Size: workload.PageSize}}
	st, err := dev.Run(recs)
	if err != nil {
		t.Fatal(err)
	}
	// Die hold = tR + tDMA + tECC + tRST ≥ response (tR + tDMA + tECC).
	if st.DieBusyTotal <= sim.Time(st.MeanRead())*sim.Microsecond-sim.Microsecond {
		t.Errorf("die busy %v should cover the full plan including the RESET tail (read %v µs)",
			st.DieBusyTotal, st.MeanRead())
	}
}

// TestGCMoveHoldsDieThroughFallback: a GC relocation whose reduced-timing
// read exhausts the ladder runs §6.2's default-timing re-read before its
// write-back, as a host read does. On an otherwise idle device the die is
// therefore held for the failed pass's die hold plus the re-read's, both
// priced here from their own plans, and only then does the write-back's
// channel transfer begin.
func TestGCMoveHoldsDieThroughFallback(t *testing.T) {
	for _, scheme := range []core.Scheme{core.AR2, core.PnAR2} {
		cfg := tinyConfig()
		cfg.Scheme = scheme
		cfg.PEC, cfg.RetentionMonths, cfg.TempC = 2500, 18, 25
		for _, fast := range []bool{true, false} {
			cfg.DisableReadFastPath = !fast
			dev, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			d := dev.dies[0]
			// The first preconditioned page on die 0 whose read falls back.
			// Reads at this condition are pure functions of the page, so
			// resolving one here leaves the device as it was.
			lpn, oc := int64(-1), readOutcome{}
			for l := int64(0); l < cfg.PreconditionPages && lpn < 0; l++ {
				if ppn, ok := dev.flash.Lookup(l); ok && ppn.Die == d.id {
					if o := dev.resolveRead(ppn); o.fallback {
						lpn, oc = l, o
					}
				}
			}
			if lpn < 0 {
				t.Fatalf("%v: no page on die 0 falls back at (2500, 18mo, 25°C)", scheme)
			}
			want := core.BuildPlan(scheme, oc.nrr, oc.timings, core.Options{}).DieHold() +
				core.BuildPlan(core.Baseline, oc.fbNRR, oc.timings, core.Options{}).DieHold()

			tx := dev.newTxn(txnGCMove)
			tx.lpn = lpn
			dev.enqueue(d, tx, 0)
			for d.cur == nil && dev.eng.Step() {
			}
			if d.cur != tx {
				t.Fatalf("%v fast=%t: the move never reached its write-back", scheme, fast)
			}
			if got := dev.eng.Now(); got != want {
				t.Errorf("%v fast=%t: write-back began at %v, want the pass's and the re-read's die holds, %v",
					scheme, fast, got, want)
			}
			if dev.stats.AR2Fallbacks != 1 {
				t.Errorf("%v fast=%t: %d fallbacks counted, want 1", scheme, fast, dev.stats.AR2Fallbacks)
			}
		}
	}
}
