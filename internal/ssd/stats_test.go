package ssd

import (
	"strings"
	"testing"

	"readretry/internal/sim"
	"readretry/internal/ssd/retrymetrics"
)

func TestRecordRetryStepsPreSizedNoAlloc(t *testing.T) {
	st := &Stats{}
	st.sizeRetryHistogram(40)
	if len(st.RetryHistogram) != 41 {
		t.Fatalf("sizeRetryHistogram(40) made %d buckets, want 41", len(st.RetryHistogram))
	}
	n := 0
	allocs := testing.AllocsPerRun(500, func() {
		st.recordRetrySteps(n % 41)
		n++
	})
	if allocs != 0 {
		t.Fatalf("recordRetrySteps allocates %v times per call on a pre-sized Stats, want 0", allocs)
	}
	// The growth fallback still works for a hand-built Stats.
	bare := &Stats{}
	bare.recordRetrySteps(3)
	if len(bare.RetryHistogram) != 4 || bare.RetryHistogram[3] != 1 {
		t.Errorf("growth fallback: histogram = %v, want length 4 with bucket 3 = 1", bare.RetryHistogram)
	}
}

// reportStats builds a small hand-made Stats whose unconditional report
// lines are easy to state exactly.
func reportStats() *Stats {
	st := &Stats{Submitted: 2, Completed: 2}
	st.All.Add(100)
	st.All.Add(200)
	st.Reads.Add(100)
	st.Writes.Add(200)
	st.addReadSample(100)
	st.ReadQueueDelay.Add(10)
	st.ReadService.Add(90)
	st.recordRetrySteps(0)
	st.recordRetrySteps(2)
	st.PageReads = 2
	st.RetriedReads = 1
	st.SimEnd = 5 * sim.Millisecond
	return st
}

const reportHead = `requests        : 2 completed of 2 submitted
response time   : mean 150 µs (reads 100 µs, writes 200 µs)
read p50/p99    : 100 / 100 µs
read breakdown  : queue 10 µs + service 90 µs
retry steps     : mean 1.00 over 2 page reads (1 retried)
background      : 0 GC jobs, 0 erases, 0 suspensions, WA 1.00
utilization     : die 0.0%, channel 0.0%
`

const reportTail = "simulated time  : 5.00ms\n"

func TestWriteReportGolden(t *testing.T) {
	retried, err := retrymetrics.New(retrymetrics.Config{Blocks: 4, PagesPerBlock: 8, Buckets: 5, TopK: 4})
	if err != nil {
		t.Fatal(err)
	}
	retried.RecordRead(1, 3, 2, 100*sim.Microsecond, 16*sim.Microsecond, 10*sim.Microsecond, 4*sim.Microsecond)
	retried.RecordRead(2, 5, 4, 200*sim.Microsecond, 0, 0, 0)

	clean, err := retrymetrics.New(retrymetrics.Config{Blocks: 4, PagesPerBlock: 8, Buckets: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		clean.RecordRead(0, i, 0, 90*sim.Microsecond, 16*sim.Microsecond, 10*sim.Microsecond, 0)
	}

	cases := []struct {
		name   string
		mutate func(*Stats)
		middle string // conditional sections between head and tail
	}{
		{"no optional sections", func(st *Stats) {}, ""},
		{
			"all sections",
			func(st *Stats) {
				st.PSOHits, st.PSOMisses = 3, 1
				st.PredictorReads = 4
				st.RegReadSetFeatures = 2
				st.AR2Fallbacks = 1
				st.HistoryReads = 9
				st.Retry = retried
			},
			`pso cache       : 3 hits, 1 misses
drift predictor : 4 guided reads
regular reads   : 2 SET FEATURE reprograms
AR2 fallbacks   : 1
retry history   : 9 seeded reads
retry metrics   : hottest block 2 (4 steps, 66.7% of all), p99 3.98 steps
retry latency   : sense 300 µs, transfer 16 µs, ecc 10 µs, queue 4 µs
retry hot pages : blk 2 pg 5 (4), blk 1 pg 3 (2)
`,
		},
		{
			"metrics without retries",
			func(st *Stats) { st.Retry = clean },
			"retry metrics   : no retried reads over 3 page reads\n",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st := reportStats()
			c.mutate(st)
			var b strings.Builder
			st.WriteReport(&b)
			want := reportHead + c.middle + reportTail
			if b.String() != want {
				t.Errorf("WriteReport output:\n%s\nwant:\n%s", b.String(), want)
			}
		})
	}
}
