package ssd

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"readretry/internal/core"
	"readretry/internal/ftl"
	"readretry/internal/nand"
	"readretry/internal/rpt"
	"readretry/internal/sim"
	"readretry/internal/ssd/retrymetrics"
	"readretry/internal/trace"
	"readretry/internal/vth"
	"readretry/internal/workload"
)

// SSD is one simulated device instance. Build with New, feed with Run.
type SSD struct {
	cfg Config
	eng *sim.Engine

	dies     []*die
	channels []*resourceQueue // DMA bus per channel
	eccs     []*resourceQueue // decoder per channel
	flash    *ftl.FTL
	table    *rpt.Table
	pso      *core.PSO
	profiles vth.ProfileMemo // Direct on the reference read path

	// execFree recycles plan executors: an executor returns here when its
	// plan's last operation completes, so the steady-state read loop
	// reuses a handful of executors instead of allocating per-read closure
	// graphs.
	execFree []*planExec
	// txnFree recycles page transactions, host and GC alike: a txn returns
	// here when its last continuation has run. txns counts every txn made,
	// so txns - len(txnFree) are in flight.
	txnFree []*txn
	txns    int
	// reqFree recycles host requests the same way: a request returns here
	// when its last page completes, and reqs counts every request made.
	reqFree []*request
	reqs    int
	// victims is the one buffer every GC job's valid LPNs land in:
	// maybeStartGC copies them into txns at once.
	victims []int64

	// metrics is the per-physical-address retry accounting layer
	// (Config.RetryMetrics); nil when disabled. history holds each block's
	// last successful read's step count + 1, 0 meaning no history yet
	// (Config.UseRetryHistory); both index blocks globally (globalBlock).
	metrics *retrymetrics.Metrics
	history []int32

	stats Stats
	ran   bool // Run has been called
}

// New builds an SSD, preconditioning it with PreconditionPages of aged data
// and profiling the RPT when the scheme needs it.
func New(cfg Config) (*SSD, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	model := vth.NewModel(cfg.VthParams, cfg.Seed)
	s := &SSD{cfg: cfg, eng: &sim.Engine{}, profiles: vth.ProfileMemo{Model: model, Direct: cfg.DisableReadFastPath}}
	for d := 0; d < cfg.Dies(); d++ {
		dd := &die{s: s, id: d, channel: d / cfg.DiesPerChannel,
			gc: make([]gcSlot, cfg.Geometry.PlanesPerDie)}
		dd.phase.d = dd
		s.dies = append(s.dies, dd)
	}
	for ch := 0; ch < cfg.Channels; ch++ {
		s.channels = append(s.channels, &resourceQueue{eng: s.eng})
		s.eccs = append(s.eccs, &resourceQueue{eng: s.eng})
	}
	f, err := ftl.NewPreconditioned(ftl.Config{
		Dies:              cfg.Dies(),
		PlanesPerDie:      cfg.Geometry.PlanesPerDie,
		BlocksPerPlane:    cfg.Geometry.BlocksPerPlane,
		PagesPerBlock:     cfg.Geometry.PagesPerBlock,
		GCThresholdBlocks: cfg.GCThresholdBlocks,
	}, cfg.PreconditionPages)
	if err != nil {
		return nil, fmt.Errorf("ssd: preconditioning to %d pages: %w", cfg.PreconditionPages, err)
	}
	s.flash = f
	if cfg.Scheme.Adaptive() {
		table, err := profiledTable(model, cfg.VthParams, cfg.Seed, cfg.RPT)
		if err != nil {
			return nil, err
		}
		s.table = table
	}
	if cfg.UsePSO {
		s.pso = core.NewPSO()
	}
	// The ladder length bounds every reported step count (failed reads
	// exhaust the ladder; every policy only reduces), so the histogram is
	// sized once here and recordRetrySteps never allocates mid-run.
	s.stats.sizeRetryHistogram(cfg.VthParams.MaxLadderSteps)
	totalBlocks := cfg.Dies() * cfg.Geometry.BlocksPerDie()
	if cfg.RetryMetrics {
		m, err := retrymetrics.New(retrymetrics.Config{
			Blocks:        totalBlocks,
			PagesPerBlock: cfg.Geometry.PagesPerBlock,
			Buckets:       cfg.VthParams.MaxLadderSteps + 1,
		})
		if err != nil {
			return nil, err
		}
		s.metrics = m
		s.stats.Retry = m
	}
	if cfg.UseRetryHistory {
		s.history = make([]int32, totalBlocks)
	}
	return s, nil
}

// Config returns the device configuration.
func (s *SSD) Config() Config { return s.cfg }

// RPT returns the profiled table (nil for non-adaptive schemes).
func (s *SSD) RPT() *rpt.Table { return s.table }

// Run replays the request stream to completion and returns the statistics.
// A device replays one stream: a second Run returns an error. So does a
// stream with a request that arrives before time 0, has a negative offset,
// or ends past the logical space; the error names the request's index.
//
// The requests reach the engine as an arrival stream in stable arrival
// order, which fires same-instant requests in trace order and before any
// device event, exactly as scheduling each request up front would.
func (s *SSD) Run(recs []trace.Record) (*Stats, error) {
	if err := s.start(recs); err != nil {
		return nil, err
	}
	s.eng.Run()
	return s.finish()
}

// start installs the request stream as the engine's arrival stream. The
// records stay the caller's: the stream reads them, in stable arrival
// order, as each arrives.
func (s *SSD) start(recs []trace.Record) error {
	if s.ran {
		return errors.New("ssd: Run on a device that already ran; build a new one with New")
	}
	s.ran = true
	if len(recs) > math.MaxInt32 {
		return fmt.Errorf("ssd: %d requests exceed the %d a run replays", len(recs), math.MaxInt32)
	}
	feed := &hostArrivals{s: s, recs: recs, order: make([]int32, len(recs))}
	reads := 0
	logical := s.cfg.TotalPages()
	for i := range recs {
		r := &recs[i]
		lpn, pages := pageSpan(r)
		switch {
		case r.Arrival < 0:
			return fmt.Errorf("ssd: request %d arrives at %v, before the stream starts", i, r.Arrival)
		case r.Offset < 0:
			return fmt.Errorf("ssd: request %d has negative offset %d", i, r.Offset)
		case int64(pages) > logical-lpn:
			return fmt.Errorf("ssd: request %d (offset %d, %d bytes) ends past the %d-page logical space",
				i, r.Offset, r.Size, logical)
		}
		feed.order[i] = int32(i)
		if !r.Write {
			reads++
		}
	}
	if reads > 0 {
		// One sample per read request, so completions never grow the slice.
		s.stats.readSamples = make([]float64, 0, reads)
	}
	slices.SortStableFunc(feed.order, func(a, b int32) int { return cmp.Compare(recs[a].Arrival, recs[b].Arrival) })
	s.eng.Feed(len(recs), feed.at, feed)
	return nil
}

// pageSpan returns the first logical page a record addresses and how many
// pages it spans: at least one, so a zero-byte request still costs a page.
func pageSpan(r *trace.Record) (lpn int64, pages int) {
	return r.Offset / workload.PageSize, max(1, (r.Size+workload.PageSize-1)/workload.PageSize)
}

// finish checks, once the engine has drained, that every request and
// transaction completed, and totals the run's statistics.
func (s *SSD) finish() (*Stats, error) {
	if n := s.reqs - len(s.reqFree); n != 0 {
		return nil, fmt.Errorf("ssd: %d requests stranded after run", n)
	}
	if n := s.txns - len(s.txnFree); n != 0 {
		return nil, fmt.Errorf("ssd: %d transactions stranded after run", n)
	}
	s.stats.SimEnd = s.eng.Now()
	s.stats.EventsFired, s.stats.EventTies = int64(s.eng.Fired()), int64(s.eng.Ties())
	s.stats.Dies = s.cfg.Dies()
	s.stats.Channels = s.cfg.Channels
	for _, ch := range s.channels {
		s.stats.ChannelBusyTotal += ch.busyTime
	}
	for _, e := range s.eccs {
		s.stats.ECCBusyTotal += e.busyTime
	}
	if s.pso != nil {
		s.stats.PSOHits, s.stats.PSOMisses = s.pso.Stats()
	}
	host, gc := s.flash.WriteCounts()
	s.stats.HostPageWrites, s.stats.GCPageWrites = host, gc
	return &s.stats, nil
}

// hostArrivals feeds a run's records to the engine in stable arrival
// order: when the stream fires entry i, record order[i] becomes a request
// and is submitted.
type hostArrivals struct {
	s     *SSD
	recs  []trace.Record
	order []int32
}

// at returns the arrival time of stream entry i.
func (h *hostArrivals) at(i int) sim.Time { return h.recs[h.order[i]].Arrival }

// Fire implements sim.Callback.
func (h *hostArrivals) Fire(now sim.Time, i int) {
	r := &h.recs[h.order[i]]
	req := h.s.newRequest()
	req.arrival, req.write = r.Arrival, r.Write
	req.lpn, req.pages = pageSpan(r)
	h.s.submit(req, now)
}

// request tracks one host request across its page transactions. Requests
// recycle through SSD.reqFree (newRequest, completePage).
type request struct {
	arrival   sim.Time
	write     bool
	lpn       int64
	pages     int
	remaining int
}

// newRequest takes a request from the free list, allocating only when
// every request made so far is in flight.
func (s *SSD) newRequest() *request {
	if n := len(s.reqFree); n > 0 {
		r := s.reqFree[n-1]
		s.reqFree = s.reqFree[:n-1]
		return r
	}
	s.reqs++
	return new(request)
}

// txn is one page-granularity flash transaction. Txns recycle through
// SSD.txnFree (newTxn, freeTxn).
type txn struct {
	kind txnKind
	lpn  int64
	ppn  ftl.PPN
	req  *request // nil for GC traffic
	// enqueuedAt stamps queue entry for the queueing-delay statistics;
	// serviceStart stamps when a host read's service began.
	enqueuedAt   sim.Time
	serviceStart sim.Time
	// gcPlane names the plane whose collection job (die.gc) a gcMove or
	// gcErase belongs to.
	gcPlane int
}

// newTxn takes a transaction of the given kind from the free list,
// allocating only when every txn made so far is in flight.
func (s *SSD) newTxn(kind txnKind) *txn {
	var t *txn
	if n := len(s.txnFree); n > 0 {
		t = s.txnFree[n-1]
		s.txnFree = s.txnFree[:n-1]
	} else {
		t = new(txn)
		s.txns++
	}
	t.kind = kind
	return t
}

// freeTxn returns t to the free list. Its last continuation has run, and
// nothing dereferences it again until newTxn hands it out anew.
func (s *SSD) freeTxn(t *txn) {
	*t = txn{}
	s.txnFree = append(s.txnFree, t)
}

type txnKind uint8

const (
	txnRead txnKind = iota
	txnWrite
	txnGCMove
	txnGCErase
)

// die is the per-die scheduler state.
type die struct {
	s       *SSD
	id      int
	channel int
	busy    bool
	// busySince stamps the current busy period for utilization stats.
	busySince sim.Time
	// lastPreLevel is the tPRE register level currently programmed on the
	// die (for the reduced-regular-read extension's SET FEATURE
	// accounting).
	lastPreLevel int
	readQ        ring[*txn]
	writeQ       ring[*txn]
	gcQ          ring[*txn]
	// cur is the write, GC move or erase that owns the die from its channel
	// transfer (or erase start) until its program or erase completes. A
	// suspension lets reads through but never another such txn, so there
	// is at most one, and the die itself is the callback for its transfer.
	cur *txn
	// phase is the die's one program/erase record; its state says whether
	// cur is running an interruptible phase, suspended in one, or neither.
	phase diePhase
	// gc holds each plane's collection job: maybeStartGC starts none on a
	// plane whose slot is active, so there is at most one per plane.
	gc []gcSlot
}

// gcSlot is one plane's collection job. It is active from victim
// selection until the victim's erase completes; moves counts the
// relocations not yet programmed, and the last one queues the erase.
type gcSlot struct {
	active bool
	block  int
	moves  int
}

// setBusy and setIdle guard the die's busy flag while accumulating busy
// time for the utilization statistics.
func (s *SSD) setBusy(d *die, now sim.Time) {
	if !d.busy {
		d.busy = true
		d.busySince = now
	}
}

func (s *SSD) setIdle(d *die, now sim.Time) {
	if d.busy {
		d.busy = false
		s.stats.DieBusyTotal += now - d.busySince
	}
}

// submit splits a host request into page transactions and enqueues them.
func (s *SSD) submit(req *request, now sim.Time) {
	req.remaining = req.pages
	s.stats.Submitted++
	for i := 0; i < req.pages; i++ {
		lpn := req.lpn + int64(i)
		kind := txnWrite
		if !req.write {
			kind = txnRead
			if _, ok := s.flash.Lookup(lpn); !ok {
				// Pre-existing (cold) data: map it without simulated cost.
				if _, err := s.flash.Precondition(lpn); err != nil {
					panic(fmt.Sprintf("ssd: precondition failed: %v", err))
				}
			}
		}
		t := s.newTxn(kind)
		t.lpn, t.req = lpn, req
		dieIdx, _ := s.flash.StripeOf(lpn)
		s.enqueue(s.dies[dieIdx], t, now)
	}
}

// enqueue adds the transaction to its die queue and pokes the scheduler.
func (s *SSD) enqueue(d *die, t *txn, now sim.Time) {
	t.enqueuedAt = now
	switch t.kind {
	case txnRead:
		d.readQ.push(t)
		// Out-of-order read priority: an arriving read may suspend an
		// in-flight program/erase (§7.2's baseline features).
		if d.phase.state == phaseRunning {
			s.suspendCurrent(d, now)
		}
	case txnWrite:
		d.writeQ.push(t)
	default:
		d.gcQ.push(t)
	}
	s.dispatch(d, now)
}

// suspendCurrent interrupts the die's running program/erase.
func (s *SSD) suspendCurrent(d *die, now sim.Time) {
	p := &d.phase
	p.epoch++               // retires the pending completion
	p.left = p.endsAt - now // a pending completion is never in the past
	p.state = phaseSuspended
	s.setIdle(d, now)
	s.stats.Suspensions++
	s.dispatch(d, now)
}

// dispatch starts the next transaction when the die is idle. Priority:
// host reads, then the suspended op's resumption, then host writes, then
// garbage collection (which preempts writes when a plane is urgent).
func (s *SSD) dispatch(d *die, now sim.Time) {
	if d.busy {
		return
	}
	if d.readQ.len() > 0 {
		s.startRead(d, d.readQ.pop(), now)
		return
	}
	if d.phase.state == phaseSuspended {
		s.setBusy(d, now)
		d.phase.run(s.eng.Now())
		return
	}
	if s.gcUrgent(d) && d.gcQ.len() > 0 {
		s.startGC(d, d.gcQ.pop(), now)
		return
	}
	if d.writeQ.len() > 0 {
		s.startWrite(d, d.writeQ.pop(), now)
		return
	}
	if d.gcQ.len() > 0 {
		s.startGC(d, d.gcQ.pop(), now)
		return
	}
}

// gcUrgent reports whether any plane of the die is close to exhaustion,
// in which case collection outranks host writes.
func (s *SSD) gcUrgent(d *die) bool {
	for pl := 0; pl < s.cfg.Geometry.PlanesPerDie; pl++ {
		if s.flash.FreeBlocks(d.id, pl) <= 1 {
			return true
		}
	}
	return false
}

// readOutcome resolves the retry behaviour of one physical page read under
// the configured scheme.
type readOutcome struct {
	nrr      int
	timings  core.StepTimings
	fallback bool // AR² worst case: reduced-timing retry exhausted the ladder
	fbNRR    int  // retry steps of the default-timing re-read
	// preLevel is the register level the initial sensing runs at when the
	// reduced-regular-read extension is active (0 = default timing).
	preLevel int
}

// blockCondition returns the condition a read in ppn's block runs under,
// from the wear the FTL keeps: the configured P/E count plus the block's
// erases, the configured retention while the block holds only pre-run
// data and was never erased (0 otherwise), and the device's temperature.
func (s *SSD) blockCondition(ppn ftl.PPN) vth.Condition {
	erases, preRun := s.flash.BlockWear(ppn.Die, ppn.Plane, ppn.Block)
	cond := vth.Condition{PEC: s.cfg.PEC + erases, TempC: s.cfg.TempC}
	if preRun {
		cond.RetentionMonths = s.cfg.RetentionMonths
	}
	return cond
}

// resolveRead runs the error model for the page at ppn under its block's
// condition.
func (s *SSD) resolveRead(ppn ftl.PPN) readOutcome {
	var out readOutcome
	tm := s.cfg.Timing
	pt := s.cfg.Geometry.PageType(ppn.Page)
	cond := s.blockCondition(ppn)
	out.timings = core.StepTimings{
		SenseDefault: tm.TR(pt, nand.Reduction{}),
		SenseReduced: tm.TR(pt, nand.Reduction{}),
		DMA:          tm.TDMA,
		ECC:          tm.TECC,
		Set:          tm.TSet,
		Reset:        tm.TRst,
	}

	red := nand.Reduction{}
	if s.cfg.Scheme.Adaptive() {
		red = s.table.Reduction(cond.PEC, cond.RetentionMonths)
		out.timings.SenseReduced = tm.TR(pt, red)
		if s.cfg.ReducedRegularReads {
			// §8 extension: the RPT-safe reduction also shortens the
			// initial sensing of every read. The RPT margin bounds the
			// floor errors of clean reads exactly as it bounds the final
			// retry step's, so N_RR is unchanged.
			out.timings.SenseDefault = out.timings.SenseReduced
			out.preLevel = nand.FractionLevel(red.Pre)
		}
	}

	// The reduction reaches the model as the feature register's levels
	// encode it, exactly as a SET FEATURE would program it.
	var reg nand.FeatureRegister
	reg.Set(nand.FractionLevel(red.Pre), 0, 0)
	pg := vth.PageID{Chip: ppn.Die, Block: ppn.Plane*s.cfg.Geometry.BlocksPerPlane + ppn.Block, Page: ppn.Page}
	res := s.profiles.Read(pg, cond, pt, reg.Reduction())

	out.nrr = res.RetrySteps
	if res.Failed {
		// §6.2's worst case: re-read with default timing.
		out.fallback = true
		out.fbNRR = s.profiles.Read(pg, cond, pt, nand.Reduction{}).RetrySteps
	}
	switch {
	case res.Failed:
	case s.cfg.UseDriftPredictor && out.nrr > 0:
		// §8 extension: start the ladder near the model-predicted V_OPT
		// position instead of walking from the default V_REF (the
		// Sentinel-style approach [56], driven by the error model).
		predicted := int(s.profiles.Model.Drift(cond) + 0.5)
		dist := out.nrr - predicted
		if dist < 0 {
			dist = -dist
		}
		if eff := dist + 1; eff < out.nrr {
			out.nrr = eff
		}
		s.stats.PredictorReads++
	case s.history != nil && out.nrr > 0:
		// History-aware policy: the block's last successful read recorded
		// where its ladder walk ended; start this read there. Like the
		// predictor and PSO, a seeded walk pays the distance between the
		// true and remembered positions plus one verification step, and
		// never exceeds the cold walk.
		if prev := s.history[s.globalBlock(ppn)]; prev > 0 {
			dist := out.nrr - int(prev-1)
			if dist < 0 {
				dist = -dist
			}
			if eff := dist + 1; eff < out.nrr {
				out.nrr = eff
			}
			s.stats.HistoryReads++
		}
	case s.pso != nil:
		g := core.Group(ppn.Die, 0, s.cfg.PEC, cond.RetentionMonths)
		out.nrr = s.pso.AdjustedSteps(g, out.nrr)
	}
	if s.history != nil && !res.Failed {
		// Record the raw ladder position (not the seeded walk's length):
		// res.RetrySteps is where the page's V_OPT actually sat, which is
		// the signal the next read of this block wants.
		s.history[s.globalBlock(ppn)] = int32(res.RetrySteps) + 1
	}
	return out
}

// globalBlock maps a page's location to the device-wide block index the
// metrics and history arrays use.
func (s *SSD) globalBlock(p ftl.PPN) int {
	g := s.cfg.Geometry
	return (p.Die*g.PlanesPerDie+p.Plane)*g.BlocksPerPlane + p.Block
}

// recordReadMetrics folds one resolved read, run as plan, into the
// per-address accounting. plan carries its latency attribution (a fallback
// plan both passes'), so this costs no plan lookup and no allocation.
func (s *SSD) recordReadMetrics(ppn ftl.PPN, oc readOutcome, plan *core.Plan, queue sim.Time) {
	if s.metrics == nil {
		return
	}
	s.metrics.RecordRead(s.globalBlock(ppn), ppn.Page, oc.nrr+oc.fbNRR,
		plan.KindTotal(core.OpSense), plan.KindTotal(core.OpDMA), plan.KindTotal(core.OpECC), queue)
}

// startRead executes a page read on d: a host read, or the read half of a
// GC move (t.kind == txnGCMove). It resolves the page's retry behaviour and
// picks the scheme's plan, with §6.2's Baseline re-read hung under its
// release when the reduced-timing pass failed; the fast path shares
// memoized plans, and the reference path (Config.DisableReadFastPath)
// builds the same tree for every read. The two kinds differ only in a
// moot move, in which statistics they feed, and in what the plan's
// response and release do (runRead); both pay tSET for a register change.
func (s *SSD) startRead(d *die, t *txn, now sim.Time) {
	s.setBusy(d, now)
	gcMove := t.kind == txnGCMove
	ppn, ok := s.flash.Lookup(t.lpn)
	switch {
	case ok:
	case gcMove:
		// The page was overwritten by the host after victim selection; the
		// move is moot.
		s.setIdle(d, now)
		s.finishGCMove(d, t.gcPlane, now)
		s.freeTxn(t)
		s.dispatch(d, now)
		return
	default:
		panic("ssd: read of unmapped LPN") // submit preconditions all reads
	}
	oc := s.resolveRead(ppn)
	var plan *core.Plan
	switch {
	case s.cfg.DisableReadFastPath:
		p := core.BuildPlan(s.cfg.Scheme, oc.nrr, oc.timings, core.Options{})
		if oc.fallback {
			p = p.Then(core.BuildPlan(core.Baseline, oc.fbNRR, oc.timings, core.Options{}))
		}
		plan = &p
	case oc.fallback:
		plan = core.CachedFallback(s.cfg.Scheme, oc.nrr, oc.fbNRR, oc.timings)
	default:
		plan = core.CachedPlan(s.cfg.Scheme, oc.nrr, oc.timings, core.Options{})
	}
	if oc.fallback {
		s.stats.AR2Fallbacks++
	}
	s.recordReadMetrics(ppn, oc, plan, now-t.enqueuedAt)
	if gcMove {
		s.stats.GCPageReads++
	} else {
		s.stats.ReadQueueDelay.Add((now - t.enqueuedAt).Microseconds())
		t.serviceStart = now
		s.stats.recordRetrySteps(oc.nrr)
		if oc.nrr > 0 {
			s.stats.RetriedReads++
		}
		s.stats.PageReads++
	}

	start := now
	if s.cfg.ReducedRegularReads && oc.preLevel != d.lastPreLevel {
		// Reprogram the die's read timing for the new block condition; the
		// register then stays put for subsequent reads at the same level.
		start += s.cfg.Timing.TSet
		d.lastPreLevel = oc.preLevel
		s.stats.RegReadSetFeatures++
	}
	s.runRead(d, t, plan, start, gcMove)
}

// runRead runs a read plan for t on d from start, on the pooled executor or,
// behind Config.DisableReadFastPath, on the reference one. A host read
// responds at the plan's ResponseOp and frees the die at its ReleaseOp; a
// GC move's read (gcMove) writes the page back at its ReleaseOp instead.
func (s *SSD) runRead(d *die, t *txn, plan *core.Plan, start sim.Time, gcMove bool) {
	if !s.cfg.DisableReadFastPath {
		var x *planExec
		if n := len(s.execFree); n > 0 {
			x = s.execFree[n-1]
			s.execFree = s.execFree[:n-1]
		} else {
			x = &planExec{s: s}
		}
		x.d, x.t, x.gcMove, x.plan = d, t, gcMove, plan
		x.remaining = len(plan.Ops)
		x.startOp(0, start)
		return
	}
	respond := func(done sim.Time) { s.readResponse(t, done) }
	release := func(at sim.Time) { s.releaseDie(d, at) }
	if gcMove {
		respond = nil
		release = func(at sim.Time) { s.gcWriteBack(d, t, at) }
	}
	s.runPlanSlow(d, plan, start, respond, release)
}

// readResponse completes a host page read at done and recycles its txn:
// the die release that may still follow needs only the die.
func (s *SSD) readResponse(t *txn, done sim.Time) {
	s.stats.ReadService.Add((done - t.serviceStart).Microseconds())
	s.completePage(t, done)
	s.freeTxn(t)
}

// releaseDie frees the die at the end of a read and starts its next txn.
func (s *SSD) releaseDie(d *die, now sim.Time) {
	s.setIdle(d, now)
	s.dispatch(d, now)
}

// planExec drives one shared, immutable plan for the page read of txn t.
// A plan is a tree rooted at op 0 (core.Plan.Finalize checks it), so an op
// starts exactly when its parent completes and the executor needs no per-op
// wait counts: its only mutable state is the outstanding-op counter.
// Executors recycle through SSD.execFree once their last operation
// completes. More than one executor can be in flight on a die (a regular
// plan releases the die at its final DMA while its last ECC decode is
// still pending), which is why they are pooled rather than per-die.
//
// gcMove, not t's kind, says what the release does: a host read's txn is
// recycled at its response, which can come before the release.
type planExec struct {
	s         *SSD
	d         *die
	t         *txn
	gcMove    bool
	plan      *core.Plan
	remaining int
}

func (x *planExec) startOp(i int, at sim.Time) {
	op := &x.plan.Ops[i]
	switch op.Res {
	case core.ResChannel:
		x.s.channels[x.d.channel].acquire(at, op.Dur, x, i)
	case core.ResECC:
		x.s.eccs[x.d.channel].acquire(at, op.Dur, x, i)
	default: // die or controller-side: the die is owned by this plan
		x.s.eng.ScheduleTag(at+op.Dur, x, i)
	}
}

// Fire implements sim.Callback: operation i of the plan completed at t.
func (x *planExec) Fire(t sim.Time, i int) {
	if i == x.plan.ResponseOp && !x.gcMove {
		x.s.readResponse(x.t, t)
	}
	if i == x.plan.ReleaseOp {
		if x.gcMove {
			x.s.gcWriteBack(x.d, x.t, t)
		} else {
			x.s.releaseDie(x.d, t)
		}
	}
	for _, dep := range x.plan.Dependents(i) {
		x.startOp(int(dep), t)
	}
	x.remaining--
	if x.remaining == 0 {
		x.t, x.plan, x.d = nil, nil, nil
		x.s.execFree = append(x.s.execFree, x)
	}
}

// runPlanSlow is the reference executor behind Config.DisableReadFastPath:
// it rebuilds the dependents adjacency and the completion closures for
// every read, and starts each op when its parent completes.
func (s *SSD) runPlanSlow(d *die, plan *core.Plan, start sim.Time, onResponse, onRelease func(sim.Time)) {
	dependents := make([][]int, len(plan.Ops))
	for i, op := range plan.Ops {
		if op.Parent >= 0 {
			dependents[op.Parent] = append(dependents[op.Parent], i)
		}
	}
	var opDone func(i int, t sim.Time)
	startOp := func(i int, at sim.Time) {
		op := plan.Ops[i]
		switch op.Res {
		case core.ResChannel:
			s.channels[d.channel].acquire(at, op.Dur, sim.Event(func(end sim.Time) { opDone(i, end) }), 0)
		case core.ResECC:
			s.eccs[d.channel].acquire(at, op.Dur, sim.Event(func(end sim.Time) { opDone(i, end) }), 0)
		default: // die or controller-side: the die is owned by this plan
			s.eng.Schedule(at+op.Dur, func(t sim.Time) { opDone(i, t) })
		}
	}
	opDone = func(i int, t sim.Time) {
		if i == plan.ResponseOp && onResponse != nil {
			onResponse(t)
		}
		if i == plan.ReleaseOp {
			onRelease(t)
		}
		for _, dep := range dependents[i] {
			startOp(dep, t)
		}
	}
	startOp(0, start)
}

// startWrite executes a host write: transfer the page over the channel,
// then program the die (suspendable by arriving reads).
func (s *SSD) startWrite(d *die, t *txn, now sim.Time) {
	s.setBusy(d, now)
	ppn, _, err := s.flash.AllocateWrite(t.lpn, false)
	if err != nil {
		panic(fmt.Sprintf("ssd: write allocation failed: %v", err))
	}
	t.ppn = ppn
	s.stats.PageWrites++
	d.cur = t
	s.channels[d.channel].acquire(now, s.cfg.Timing.TDMA, d, 0)
}

// Fire implements sim.Callback: the channel transfer of the die's write or
// GC move ended at t, so its program phase begins.
func (d *die) Fire(t sim.Time, _ int) {
	d.phase.start(t, d.s.cfg.Timing.TProg)
}

// diePhase is the program or erase of a die's cur txn: running while its
// completion event is pending, suspended while reads hold the die, and
// running again when dispatch resumes it for the time it had left. Each
// run schedules its completion tagged with the current epoch; a
// suspension bumps the epoch, so the superseded completion fires as a
// no-op.
//
// Each die owns one record and reuses it for every program and erase. The
// epoch is never reset: it only grows, so a completion retired during any
// earlier use carries an older epoch than the live one, and reusing the
// record cannot revive it.
type diePhase struct {
	d      *die
	state  phaseState
	left   sim.Time // time still to run when run (re)starts the phase
	endsAt sim.Time
	epoch  int // tag of the one live completion
}

// phaseState says what a die's program/erase record holds.
type phaseState uint8

const (
	phaseNone      phaseState = iota // cur is in no interruptible phase
	phaseRunning                     // the completion is pending; a read suspends it
	phaseSuspended                   // reads hold the die; dispatch resumes it
)

// start begins a dur-long program or erase of the die's cur txn at at.
func (p *diePhase) start(at, dur sim.Time) {
	p.left = dur
	p.run(at)
}

// run occupies the die from at for the phase's remaining time.
func (p *diePhase) run(at sim.Time) {
	s := p.d.s
	p.endsAt = at + p.left
	s.eng.ScheduleTag(p.endsAt, p, p.epoch)
	p.state = phaseRunning
	// Reads that arrived while this transaction was in its transfer phase
	// suspend it the moment the die phase begins.
	if p.d.readQ.len() > 0 {
		s.suspendCurrent(p.d, s.eng.Now())
	}
}

// Fire implements sim.Callback: the phase ran to completion, unless a
// suspension retired this completion. The die's cur txn is done.
func (p *diePhase) Fire(t sim.Time, epoch int) {
	if epoch != p.epoch {
		p.d.s.stats.RetiredCompletions++
		return
	}
	d, s := p.d, p.d.s
	p.state = phaseNone
	tx := d.cur
	d.cur = nil
	switch tx.kind {
	case txnWrite:
		ppn := tx.ppn
		s.completePage(tx, t)
		s.freeTxn(tx)
		s.afterWrite(d, ppn, t)
	case txnGCMove:
		s.setIdle(d, t)
		s.finishGCMove(d, tx.gcPlane, t)
		s.freeTxn(tx)
		s.dispatch(d, t)
	case txnGCErase:
		plane := tx.gcPlane
		s.freeTxn(tx)
		s.flash.OnErase(d.id, plane, d.gc[plane].block)
		d.gc[plane] = gcSlot{}
		s.setIdle(d, t)
		// The plane may still be below threshold: chain another job.
		s.maybeStartGC(d, plane, t)
		s.dispatch(d, t)
	}
}

// afterWrite finishes a write transaction: free the die and kick GC if the
// plane dropped below the threshold.
func (s *SSD) afterWrite(d *die, ppn ftl.PPN, now sim.Time) {
	s.setIdle(d, now)
	s.maybeStartGC(d, ppn.Plane, now)
	s.dispatch(d, now)
}

// maybeStartGC launches one collection job for the plane when needed.
func (s *SSD) maybeStartGC(d *die, plane int, now sim.Time) {
	if d.gc[plane].active || !s.flash.NeedGC(d.id, plane) {
		return
	}
	block, valids, ok := s.flash.Victim(d.id, plane, s.victims[:0])
	s.victims = valids
	if !ok {
		return
	}
	d.gc[plane] = gcSlot{active: true, block: block, moves: len(valids)}
	s.stats.GCJobs++
	if len(valids) == 0 {
		s.enqueueGCErase(d, plane, now)
		return
	}
	// The erase is enqueued by the last completed move (see finishGCMove).
	for _, lpn := range valids {
		t := s.newTxn(txnGCMove)
		t.lpn, t.gcPlane = lpn, plane
		s.enqueue(d, t, now)
	}
}

// enqueueGCErase queues the erase of the block the plane's job collects.
func (s *SSD) enqueueGCErase(d *die, plane int, now sim.Time) {
	t := s.newTxn(txnGCErase)
	t.gcPlane = plane
	s.enqueue(d, t, now)
}

// startGC executes a GC transaction: a move's read takes the page-read
// entry, and an erase erases the collected block (suspendable); the die
// phase's completion returns the block to the free pool.
func (s *SSD) startGC(d *die, t *txn, now sim.Time) {
	if t.kind == txnGCMove {
		s.startRead(d, t, now)
		return
	}
	s.setBusy(d, now)
	s.stats.Erases++
	d.cur = t
	d.phase.start(now, s.cfg.Timing.TBers)
}

// gcWriteBack writes a relocated page back out once its read released the
// die: a channel transfer, then the program.
func (s *SSD) gcWriteBack(d *die, t *txn, at sim.Time) {
	ppn, _, err := s.flash.AllocateWrite(t.lpn, true)
	if err != nil {
		panic(fmt.Sprintf("ssd: gc relocation failed: %v", err))
	}
	t.ppn = ppn
	d.cur = t
	s.channels[d.channel].acquire(at, s.cfg.Timing.TDMA, d, 0)
}

// finishGCMove counts one of the plane's relocations done and queues the
// erase when the victim is empty.
func (s *SSD) finishGCMove(d *die, plane int, now sim.Time) {
	job := &d.gc[plane]
	job.moves--
	if job.moves == 0 {
		s.enqueueGCErase(d, plane, now)
	}
}

// completePage accounts a finished host page transaction. The request's
// last page returns it to the free list: every txn that pointed at it has
// completed, and the caller frees t next.
func (s *SSD) completePage(t *txn, done sim.Time) {
	req := t.req
	req.remaining--
	if req.remaining > 0 {
		return
	}
	resp := (done - req.arrival).Microseconds()
	s.stats.All.Add(resp)
	if req.write {
		s.stats.Writes.Add(resp)
	} else {
		s.stats.Reads.Add(resp)
		s.stats.addReadSample(resp)
	}
	s.stats.Completed++
	s.reqFree = append(s.reqFree, req)
}

// resourceQueue is a FIFO-arbitrated unit (channel bus or ECC engine). Its
// end-of-occupancy events are scheduled with itself as the callback, so
// granting the resource allocates nothing.
type resourceQueue struct {
	eng      *sim.Engine
	busy     bool
	cur      pendingAcquire // the in-flight occupant while busy
	queue    ring[pendingAcquire]
	busyTime sim.Time
}

// pendingAcquire is one occupant, queued or in flight: cb.Fire(end, tag)
// runs when its dur-long occupancy ends.
type pendingAcquire struct {
	dur sim.Time
	cb  sim.Callback
	tag int
}

// acquire requests the resource for dur starting no earlier than at;
// cb.Fire(end, tag) runs when the occupancy ends.
func (r *resourceQueue) acquire(at sim.Time, dur sim.Time, cb sim.Callback, tag int) {
	a := pendingAcquire{dur: dur, cb: cb, tag: tag}
	if r.busy {
		r.queue.push(a)
		return
	}
	r.grant(at, a)
}

// grant starts an occupancy immediately (the resource must be idle).
func (r *resourceQueue) grant(at sim.Time, a pendingAcquire) {
	r.busy = true
	r.busyTime += a.dur
	r.cur = a
	r.eng.ScheduleTag(max(at, r.eng.Now())+a.dur, r, 0)
}

// Fire implements sim.Callback: the current occupancy ended. The next
// queued acquire is granted before the finished one's continuation runs.
func (r *resourceQueue) Fire(t sim.Time, _ int) {
	done := r.cur
	r.cur, r.busy = pendingAcquire{}, false
	if r.queue.len() > 0 {
		r.grant(t, r.queue.pop())
	}
	done.cb.Fire(t, done.tag)
}
