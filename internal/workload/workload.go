// Package workload generates the twelve block-I/O workloads of Table 2: six
// MSR-Cambridge-like enterprise traces (stg_0, hm_0, prn_1, proj_1, mds_1,
// usr_1) and the six YCSB core workloads (A–F), lowered to block I/O.
//
// The paper's evaluation is sensitive to two first-order workload
// characteristics, both listed in Table 2 and both reproduced exactly here:
//
//   - Read ratio: the fraction of requests that are reads.
//   - Cold ratio: the fraction of reads whose target page is never updated
//     during the run. Cold pages keep their preconditioned retention age
//     for the whole experiment, so they bear the full read-retry cost;
//     write-hot pages are rewritten and read back young.
//
// The generator partitions the logical space into a cold region (read-only)
// and a hot region (read/write); reads target the cold region with
// probability equal to the cold ratio, and all writes land in the hot
// region. Within each region, YCSB workloads use their canonical key
// distributions (scrambled Zipfian, latest, scan); MSRC-like workloads use
// a Zipfian over the region with bursty Poisson arrivals.
package workload

import (
	"fmt"

	"readretry/internal/rng"
	"readretry/internal/sim"
	"readretry/internal/trace"
)

// Kind selects the request-stream style.
type Kind int

// Workload kinds.
const (
	MSRC  Kind = iota // enterprise block trace: bursty, mixed sizes
	YCSBA             // 50/50 read/update, zipfian
	YCSBB             // 95/5 read/update, zipfian
	YCSBC             // 100% read, zipfian
	YCSBD             // read latest
	YCSBE             // short scans
	YCSBF             // read-modify-write
)

// Spec describes one workload. ReadRatio and ColdRatio reproduce Table 2;
// the remaining knobs control shape, not the headline statistics.
type Spec struct {
	Name      string
	Kind      Kind
	ReadRatio float64 // fraction of requests that are reads
	ColdRatio float64 // fraction of reads hitting never-updated pages

	// FootprintPages is the number of distinct 16-KiB logical pages the
	// workload touches. Zero selects the generator default.
	FootprintPages int64
	// AvgIOPS is the mean arrival rate. Zero selects the default.
	AvgIOPS float64
	// Burstiness > 1 concentrates arrivals into on-periods (MSRC traces
	// are strongly bursty); 1 is plain Poisson.
	Burstiness float64
	// MaxPagesPerRequest bounds the request size (in 16-KiB pages).
	MaxPagesPerRequest int
	// ZipfTheta is the skew of the popularity distribution (YCSB: 0.99).
	ZipfTheta float64
}

// Table2 returns the twelve workloads with the exact read and cold ratios
// of Table 2.
func Table2() []Spec {
	mk := func(name string, kind Kind, read, cold float64) Spec {
		return Spec{Name: name, Kind: kind, ReadRatio: read, ColdRatio: cold}
	}
	return []Spec{
		mk("stg_0", MSRC, 0.15, 0.38),
		mk("hm_0", MSRC, 0.36, 0.22),
		mk("prn_1", MSRC, 0.75, 0.72),
		mk("proj_1", MSRC, 0.89, 0.96),
		mk("mds_1", MSRC, 0.92, 0.98),
		mk("usr_1", MSRC, 0.96, 0.73),
		mk("YCSB-A", YCSBA, 0.98, 0.72),
		mk("YCSB-B", YCSBB, 0.99, 0.59),
		mk("YCSB-C", YCSBC, 0.99, 0.60),
		mk("YCSB-D", YCSBD, 0.98, 0.58),
		mk("YCSB-E", YCSBE, 0.99, 0.98),
		mk("YCSB-F", YCSBF, 0.98, 0.87),
	}
}

// ByName returns the Table 2 spec with the given name.
func ByName(name string) (Spec, error) {
	for _, s := range Table2() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workload: unknown workload %q", name)
}

// Names lists the Table 2 workload names in paper order.
func Names() []string {
	specs := Table2()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// ReadDominant reports whether the paper classifies the workload as
// read-dominant (§7: prn_1 through usr_1 and all YCSB workloads).
func (s Spec) ReadDominant() bool { return s.ReadRatio >= 0.5 }

// AvgPagesPerRequest returns the expected request size in pages, from the
// generator's size distributions. Sweeps use it to equalize the page-level
// arrival rate across workloads (a scan-heavy workload like YCSB-E would
// otherwise present ~8× the device load of a point-read workload at the
// same request rate).
func (s Spec) AvgPagesPerRequest() float64 {
	s = s.withDefaults()
	// Non-scan request sizes follow the truncated geometric of
	// requestPages: continue with probability 0.35 up to the max.
	geomMean := func(max int) float64 {
		if max <= 1 {
			return 1
		}
		e, p := 0.0, 1.0
		for n := 1; n < max; n++ {
			e += float64(n) * p * 0.65
			p *= 0.35
		}
		e += float64(max) * p
		return e
	}
	readPages := geomMean(s.MaxPagesPerRequest)
	if s.Kind == YCSBE {
		readPages = 8.5 // uniform 1–16-page scans
	}
	writePages := geomMean(s.MaxPagesPerRequest)
	return s.ReadRatio*readPages + (1-s.ReadRatio)*writePages
}

// withDefaults fills zero knobs.
func (s Spec) withDefaults() Spec {
	if s.FootprintPages == 0 {
		s.FootprintPages = 1 << 20 // 16 GiB of 16-KiB pages
	}
	if s.AvgIOPS == 0 {
		s.AvgIOPS = 1200
	}
	if s.Burstiness == 0 {
		if s.Kind == MSRC {
			s.Burstiness = 3
		} else {
			s.Burstiness = 1
		}
	}
	if s.MaxPagesPerRequest == 0 {
		if s.Kind == MSRC {
			s.MaxPagesPerRequest = 4
		} else {
			s.MaxPagesPerRequest = 1
		}
	}
	if s.ZipfTheta == 0 {
		s.ZipfTheta = 0.99
	}
	return s
}

// PageSize is the logical page size requests are aligned to (the flash page
// size of §7.1).
const PageSize = 16 * 1024

// Generator produces a deterministic request stream for a Spec.
type Generator struct {
	spec Spec
	src  *rng.Source

	coldPages int64 // pages [0, coldPages) are the cold region
	hotPages  int64 // pages [coldPages, coldPages+hotPages)

	coldZipf *rng.Zipf
	hotZipf  *rng.Zipf
	latest   *rng.Latest

	now        sim.Time
	burstLeft  int
	burstGap   sim.Time
	inserted   int64 // for YCSB-D's growing population
	generated  int64
	readsMade  int64
	writesMade int64
}

// NewGenerator builds a generator for the spec with the given seed.
func NewGenerator(spec Spec, seed uint64) *Generator {
	s := spec.withDefaults()
	g := &Generator{spec: s, src: rng.New(seed)}
	// Size the cold region so that coldRatio of reads land there while it
	// holds the never-written pages. The region must exist even for
	// cold-free workloads to keep the address math uniform.
	g.coldPages = int64(float64(s.FootprintPages) * s.ColdRatio)
	if g.coldPages < 1 {
		g.coldPages = 1
	}
	g.hotPages = s.FootprintPages - g.coldPages
	if g.hotPages < 1 {
		g.hotPages = 1
	}
	g.coldZipf = rng.NewZipf(g.coldPages, s.ZipfTheta)
	g.hotZipf = rng.NewZipf(g.hotPages, s.ZipfTheta)
	g.latest = rng.NewLatest(g.hotPages, s.ZipfTheta)
	g.inserted = g.hotPages / 2
	if g.inserted < 1 {
		g.inserted = 1
	}
	return g
}

// Spec returns the effective spec (defaults resolved).
func (g *Generator) Spec() Spec { return g.spec }

// interarrival draws the next gap, modeling burstiness as an on/off
// modulated Poisson process: bursts of back-to-back arrivals separated by
// idle gaps, with the configured average rate preserved.
func (g *Generator) interarrival() sim.Time {
	mean := 1e9 / g.spec.AvgIOPS // ns
	if g.spec.Burstiness <= 1 {
		return sim.Time(g.src.ExpFloat64() * mean)
	}
	if g.burstLeft > 0 {
		g.burstLeft--
		return sim.Time(g.src.ExpFloat64() * mean / g.spec.Burstiness)
	}
	burst := 4 + g.src.Intn(12)
	g.burstLeft = burst
	// The long gap restores the average rate: the burst "saved"
	// burst × mean × (1 − 1/B) of time.
	gap := mean * (1 + float64(burst)*(1-1/g.spec.Burstiness))
	return sim.Time(g.src.ExpFloat64() * gap)
}

// coldRead decides whether the next read targets the cold region.
func (g *Generator) coldRead() bool { return g.src.Float64() < g.spec.ColdRatio }

// nextPage picks the target page for a request.
func (g *Generator) nextPage(isRead bool) int64 {
	if isRead && g.coldRead() {
		// Cold reads: zipfian inside the cold (never-written) region.
		return g.coldZipf.Sample(g.src)
	}
	hot := g.hotPage(isRead)
	return g.coldPages + hot
}

func (g *Generator) hotPage(isRead bool) int64 {
	switch g.spec.Kind {
	case YCSBD:
		// Read latest: reads favor recent inserts; writes append.
		if isRead {
			return g.latest.Sample(g.src, g.inserted)
		}
		if g.inserted < g.hotPages {
			g.inserted++
		}
		return g.inserted - 1
	case YCSBE:
		// Scans start at a zipfian key; starting page returned here, scan
		// length handled by request sizing.
		return g.hotZipf.ScrambledSample(g.src)
	case YCSBA, YCSBB, YCSBC, YCSBF:
		return g.hotZipf.ScrambledSample(g.src)
	default: // MSRC
		return g.hotZipf.Sample(g.src)
	}
}

// requestPages picks the size of a request in pages.
func (g *Generator) requestPages(isRead bool) int {
	max := g.spec.MaxPagesPerRequest
	if g.spec.Kind == YCSBE && isRead {
		// Short scans: 1–16 pages, uniform (YCSB's default scan length).
		return 1 + g.src.Intn(16)
	}
	if max <= 1 {
		return 1
	}
	// Size distribution skews small, like enterprise traces.
	n := 1
	for n < max && g.src.Float64() < 0.35 {
		n++
	}
	return n
}

// Next returns the next request.
func (g *Generator) Next() trace.Record {
	g.now += g.interarrival()
	isRead := g.src.Float64() < g.spec.ReadRatio
	page := g.nextPage(isRead)
	pages := g.requestPages(isRead)
	// Keep multi-page requests inside the footprint.
	if page+int64(pages) > g.spec.FootprintPages {
		page = g.spec.FootprintPages - int64(pages)
		if page < 0 {
			page, pages = 0, 1
		}
	}
	g.generated++
	if isRead {
		g.readsMade++
	} else {
		g.writesMade++
	}
	return trace.Record{
		Arrival: g.now,
		Offset:  page * PageSize,
		Size:    pages * PageSize,
		Write:   !isRead,
	}
}

// Generate produces n requests.
func (g *Generator) Generate(n int) []trace.Record {
	out := make([]trace.Record, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// Stats returns the generated read/write counts.
func (g *Generator) Stats() (reads, writes int64) { return g.readsMade, g.writesMade }

// MeasureColdRatio computes the achieved cold ratio of a request sequence:
// the fraction of read requests whose first page is never written within
// the sequence. It exists so tests (and EXPERIMENTS.md) can verify the
// generator honors Table 2.
func MeasureColdRatio(recs []trace.Record) float64 {
	written := map[int64]bool{}
	for _, r := range recs {
		if r.Write {
			for p := r.Offset / PageSize; p <= (r.Offset+int64(r.Size)-1)/PageSize; p++ {
				written[p] = true
			}
		}
	}
	reads, cold := 0, 0
	for _, r := range recs {
		if r.Write {
			continue
		}
		reads++
		if !written[r.Offset/PageSize] {
			cold++
		}
	}
	if reads == 0 {
		return 0
	}
	return float64(cold) / float64(reads)
}

// MeasureReadRatio computes the fraction of requests that are reads.
func MeasureReadRatio(recs []trace.Record) float64 {
	if len(recs) == 0 {
		return 0
	}
	reads := 0
	for _, r := range recs {
		if !r.Write {
			reads++
		}
	}
	return float64(reads) / float64(len(recs))
}
