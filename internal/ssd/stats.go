package ssd

import (
	"fmt"
	"io"
	"sort"

	"readretry/internal/mathx"
	"readretry/internal/sim"
	"readretry/internal/ssd/retrymetrics"
)

// Stats aggregates one simulation run. Response times are in microseconds.
type Stats struct {
	Submitted int64
	Completed int64

	// Reads/Writes/All summarize host-request response times (µs).
	Reads  mathx.Running
	Writes mathx.Running
	All    mathx.Running

	// RetrySteps summarizes N_RR across host page reads; RetryHistogram
	// holds its full distribution (index = step count). These, PageReads
	// and RetriedReads count host page reads only; GCPageReads counts the
	// GC relocation reads. The counters below that describe how a read ran
	// (AR2Fallbacks, the PSO hits and misses, PredictorReads,
	// RegReadSetFeatures, HistoryReads) and Retry count both kinds.
	RetrySteps     mathx.Running
	RetryHistogram []int64
	PageReads      int64
	PageWrites     int64
	RetriedReads   int64

	// ReadQueueDelay and ReadService split a host page read's response
	// into time waiting for the die and time being served (µs) — the
	// breakdown that shows where PR²/AR² wins come from under load.
	ReadQueueDelay mathx.Running
	ReadService    mathx.Running

	GCJobs      int64
	GCPageReads int64
	Erases      int64
	Suspensions int64

	// AR2Fallbacks counts reduced-timing retry operations that exhausted
	// the ladder and re-ran with default timing (§6.2's worst case; zero
	// with the default RPT margin).
	AR2Fallbacks int64

	PSOHits, PSOMisses int

	HostPageWrites, GCPageWrites int64

	// PredictorReads counts retried reads whose ladder start was chosen by
	// the drift predictor (§8 extension); RegReadSetFeatures counts the
	// SET FEATURE commands the reduced-regular-read extension issued.
	PredictorReads     int64
	RegReadSetFeatures int64

	// HistoryReads counts retried reads whose ladder start was seeded from
	// the block's recorded history (Config.UseRetryHistory).
	HistoryReads int64

	// Retry is the per-physical-address accounting layer, attached when
	// Config.RetryMetrics is set (nil otherwise). It records host and GC
	// page reads, so its PageReads is PageReads + GCPageReads.
	Retry *retrymetrics.Metrics

	// Resource occupancy for utilization statistics.
	DieBusyTotal     sim.Time
	ChannelBusyTotal sim.Time
	ECCBusyTotal     sim.Time
	Dies             int
	Channels         int

	SimEnd sim.Time

	// EventsFired and EventTies are the run's engine counts (sim.Engine's
	// Fired and Ties); RetiredCompletions counts the program/erase
	// completions a suspension retired, which fire as no-ops. The events
	// that did work number EventsFired − RetiredCompletions. Once a run
	// drains, every retired completion has fired, so RetiredCompletions
	// equals Suspensions. No report or CSV prints these counts.
	EventsFired        int64
	EventTies          int64
	RetiredCompletions int64

	readSamples []float64
	sorted      bool
}

// DieUtilization returns the average fraction of time a die was busy.
func (st *Stats) DieUtilization() float64 {
	if st.SimEnd == 0 || st.Dies == 0 {
		return 0
	}
	return float64(st.DieBusyTotal) / float64(st.SimEnd) / float64(st.Dies)
}

// ChannelUtilization returns the average fraction of time a channel bus was
// moving data.
func (st *Stats) ChannelUtilization() float64 {
	if st.SimEnd == 0 || st.Channels == 0 {
		return 0
	}
	return float64(st.ChannelBusyTotal) / float64(st.SimEnd) / float64(st.Channels)
}

// MeanRead returns the mean read response time in µs.
func (st *Stats) MeanRead() float64 { return st.Reads.Mean() }

// MeanWrite returns the mean write response time in µs.
func (st *Stats) MeanWrite() float64 { return st.Writes.Mean() }

// MeanAll returns the mean response time across all requests in µs.
func (st *Stats) MeanAll() float64 { return st.All.Mean() }

// addReadSample records one read response time for the percentile
// statistics. Appending invalidates the sort order, so the sorted flag is
// reset: a ReadPercentile call mid-run (progress inspection) used to leave
// the flag set and silently compute later percentiles over a half-sorted
// slice.
func (st *Stats) addReadSample(v float64) {
	st.readSamples = append(st.readSamples, v)
	st.sorted = false
}

// ReadPercentile returns the p-th percentile read response time in µs. The
// samples are sorted lazily — once per batch of appends, not per call.
func (st *Stats) ReadPercentile(p float64) float64 {
	if !st.sorted {
		sort.Float64s(st.readSamples)
		st.sorted = true
	}
	return mathx.PercentileSorted(st.readSamples, p)
}

// WriteAmplification returns total/host page writes.
func (st *Stats) WriteAmplification() float64 {
	if st.HostPageWrites == 0 {
		return 1
	}
	return float64(st.HostPageWrites+st.GCPageWrites) / float64(st.HostPageWrites)
}

// MeanRetrySteps returns the average N_RR over host page reads.
func (st *Stats) MeanRetrySteps() float64 { return st.RetrySteps.Mean() }

// sizeRetryHistogram preallocates the N_RR distribution for a ladder of
// maxSteps entries. Every read reports between 0 and maxSteps steps (failed
// reads exhaust the ladder; every policy only ever reduces the count), so
// recordRetrySteps never grows the slice mid-run — the last per-read
// allocation path in Stats.
func (st *Stats) sizeRetryHistogram(maxSteps int) {
	if len(st.RetryHistogram) <= maxSteps {
		st.RetryHistogram = make([]int64, maxSteps+1)
	}
}

// recordRetrySteps folds one read's step count into the distribution. The
// growth loop is a fallback for hand-built Stats; a simulator-owned Stats is
// pre-sized at construction and never enters it.
func (st *Stats) recordRetrySteps(n int) {
	st.RetrySteps.Add(float64(n))
	for len(st.RetryHistogram) <= n {
		st.RetryHistogram = append(st.RetryHistogram, 0)
	}
	st.RetryHistogram[n]++
}

// String summarizes the run.
func (st *Stats) String() string {
	return fmt.Sprintf(
		"reqs=%d mean=%.0fus read=%.0fus write=%.0fus p99r=%.0fus nrr=%.1f gc=%d susp=%d",
		st.Completed, st.MeanAll(), st.MeanRead(), st.MeanWrite(),
		st.ReadPercentile(99), st.MeanRetrySteps(), st.GCJobs, st.Suspensions)
}

// WriteReport prints the full statistics in the layout cmd/ssdsim shows.
func (st *Stats) WriteReport(w io.Writer) {
	fmt.Fprintf(w, "requests        : %d completed of %d submitted\n", st.Completed, st.Submitted)
	fmt.Fprintf(w, "response time   : mean %.0f µs (reads %.0f µs, writes %.0f µs)\n",
		st.MeanAll(), st.MeanRead(), st.MeanWrite())
	fmt.Fprintf(w, "read p50/p99    : %.0f / %.0f µs\n", st.ReadPercentile(50), st.ReadPercentile(99))
	fmt.Fprintf(w, "read breakdown  : queue %.0f µs + service %.0f µs\n",
		st.ReadQueueDelay.Mean(), st.ReadService.Mean())
	fmt.Fprintf(w, "retry steps     : mean %.2f over %d page reads (%d retried)\n",
		st.MeanRetrySteps(), st.PageReads, st.RetriedReads)
	fmt.Fprintf(w, "background      : %d GC jobs, %d erases, %d suspensions, WA %.2f\n",
		st.GCJobs, st.Erases, st.Suspensions, st.WriteAmplification())
	fmt.Fprintf(w, "utilization     : die %.1f%%, channel %.1f%%\n",
		st.DieUtilization()*100, st.ChannelUtilization()*100)
	if st.PSOHits+st.PSOMisses > 0 {
		fmt.Fprintf(w, "pso cache       : %d hits, %d misses\n", st.PSOHits, st.PSOMisses)
	}
	if st.PredictorReads > 0 {
		fmt.Fprintf(w, "drift predictor : %d guided reads\n", st.PredictorReads)
	}
	if st.RegReadSetFeatures > 0 {
		fmt.Fprintf(w, "regular reads   : %d SET FEATURE reprograms\n", st.RegReadSetFeatures)
	}
	if st.AR2Fallbacks > 0 {
		fmt.Fprintf(w, "AR2 fallbacks   : %d\n", st.AR2Fallbacks)
	}
	if st.HistoryReads > 0 {
		fmt.Fprintf(w, "retry history   : %d seeded reads\n", st.HistoryReads)
	}
	if st.Retry != nil {
		writeRetryMetrics(w, st.Retry.Summary())
	}
	fmt.Fprintf(w, "simulated time  : %v\n", st.SimEnd)
}

// writeRetryMetrics renders the per-address accounting section of the
// report from a digested summary.
func writeRetryMetrics(w io.Writer, s retrymetrics.Summary) {
	if s.RetriedReads == 0 {
		fmt.Fprintf(w, "retry metrics   : no retried reads over %d page reads\n", s.PageReads)
		return
	}
	fmt.Fprintf(w, "retry metrics   : hottest block %d (%d steps, %.1f%% of all), p99 %.2f steps\n",
		s.HotBlock, s.HotBlockSteps, s.HotShare*100, s.P99Steps)
	fmt.Fprintf(w, "retry latency   : sense %.0f µs, transfer %.0f µs, ecc %.0f µs, queue %.0f µs\n",
		s.SenseUS, s.TransferUS, s.ECCUS, s.QueueUS)
	if len(s.TopPages) > 0 {
		fmt.Fprintf(w, "retry hot pages :")
		n := len(s.TopPages)
		if n > 4 {
			n = 4
		}
		for i := 0; i < n; i++ {
			p := s.TopPages[i]
			if i > 0 {
				fmt.Fprintf(w, ",")
			}
			fmt.Fprintf(w, " blk %d pg %d (%d)", p.Block, p.Page, p.Steps)
		}
		fmt.Fprintf(w, "\n")
	}
}
