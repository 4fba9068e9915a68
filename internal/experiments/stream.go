package experiments

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"readretry/internal/ssd/retrymetrics"
)

// CellSink receives completed sweep cells. The engine guarantees canonical
// order — a sink observes exactly the sequence Result.Cells holds, one
// call per cell with its grid index and the grid total — regardless of the
// Parallelism setting, by re-sequencing out-of-order completions
// internally (cells are released stripe-by-stripe, once their
// (workload, condition) stripe is fully measured and normalized). A
// non-nil error aborts the sweep.
//
// CellSink generalizes Config.Progress: Progress observes *completion
// counts* as they happen (unordered), a sink observes *the cells
// themselves* in canonical order. Calls are serialized; implementations
// need no locking of their own.
type CellSink interface {
	Cell(c Cell, index, total int) error
}

// CellSinkFunc adapts a function to a CellSink.
type CellSinkFunc func(c Cell, index, total int) error

// Cell implements CellSink.
func (f CellSinkFunc) Cell(c Cell, index, total int) error { return f(c, index, total) }

// csvSchema is the one layout of both sweep CSVs: the axis prefix
// workload,pec,months[,temp_c][,device],config, then the five measurement
// columns or, for the retry-metrics CSV, retrymetrics.CSVColumns. An axis
// column appears iff the grid carries that axis, so single-device
// temperature-less grids keep their historical schema. Streamed and
// buffered output both render through it, which is what makes them
// byte-identical.
type csvSchema struct {
	temp, device, metrics bool
}

// header returns the schema's header row, without the newline.
func (s csvSchema) header() string {
	h := "workload,pec,months"
	if s.temp {
		h += ",temp_c"
	}
	if s.device {
		h += ",device"
	}
	if s.metrics {
		return h + ",config," + strings.Join(retrymetrics.CSVColumns(), ",")
	}
	return h + ",config,mean_us,mean_read_us,p99_read_us,normalized,retry_steps"
}

// appendRow appends one cell's row to b. A temperature- or device-carrying
// cell under a schema without that column is a configuration error —
// silently dropping the axis column would make the grid's rows ambiguous —
// and so is a metrics row for a cell without a retry digest (the sweep ran
// without Base.RetryMetrics).
func (s csvSchema) appendRow(b []byte, c Cell) ([]byte, error) {
	ctor := "NewCSVSinkFor"
	if s.metrics {
		ctor = "NewMetricsCSVSinkFor"
	}
	if c.Cond.TempC != 0 && !s.temp {
		return b, fmt.Errorf("cell %s carries a temperature but the sink has no temp_c column; construct it with %s", c.Cond, ctor)
	}
	if c.Cond.Device != "" && !s.device {
		return b, fmt.Errorf("cell %s carries a device but the sink has no device column; construct it with %s", c.Cond, ctor)
	}
	if s.metrics && c.Retry == nil {
		return b, fmt.Errorf("cell %s/%s/%s carries no retry metrics; enable Config.Base.RetryMetrics",
			c.Workload, c.Cond, c.Config)
	}
	b = fmt.Appendf(b, "%s,%d,%g", c.Workload, c.Cond.PEC, c.Cond.Months)
	if s.temp {
		b = fmt.Appendf(b, ",%g", c.Cond.TempC)
	}
	if s.device {
		b = fmt.Appendf(b, ",%s", c.Cond.Device)
	}
	b = fmt.Appendf(b, ",%s", c.Config)
	if s.metrics {
		return fmt.Appendf(b, ",%s\n", strings.Join(c.Retry.CSVFields(), ",")), nil
	}
	return fmt.Appendf(b, ",%.2f,%.2f,%.2f,%.4f,%.2f\n",
		c.Mean, c.MeanRead, c.P99Read, c.Normalized, c.RetrySteps), nil
}

// CSVSink streams sweep cells as CSV rows the moment the engine releases
// them, instead of materializing a Result first — the sweep CSV or, from
// NewMetricsCSVSinkFor, the per-cell retry-metrics CSV. For the same grid
// its output is byte-identical to Result.WriteCSV (or WriteMetricsCSV) at
// every parallelism setting.
type CSVSink struct {
	w      io.Writer
	schema csvSchema
	row    []byte // reused row buffer
}

// NewCSVSinkFor writes the sweep CSV header to w and returns a sink that
// appends one row per cell. The schema follows the sweep configuration:
// grids whose conditions carry explicit temperatures get the temp_c
// column, grids whose conditions carry explicit device presets get the
// device column (matching what Result.WriteCSV emits for the same grid).
func NewCSVSinkFor(cfg Config, w io.Writer) (*CSVSink, error) {
	return newCSVSink(w, csvSchema{temp: cfg.HasTemperatureAxis(), device: cfg.HasDeviceAxis()})
}

// NewMetricsCSVSinkFor is NewCSVSinkFor for the per-cell retry-metrics CSV:
// the same axis columns, then retrymetrics.CSVColumns. Every cell must
// carry a retry digest (the sweep runs with Base.RetryMetrics).
func NewMetricsCSVSinkFor(cfg Config, w io.Writer) (*CSVSink, error) {
	return newCSVSink(w, csvSchema{temp: cfg.HasTemperatureAxis(), device: cfg.HasDeviceAxis(), metrics: true})
}

func newCSVSink(w io.Writer, s csvSchema) (*CSVSink, error) {
	if _, err := io.WriteString(w, s.header()+"\n"); err != nil {
		return nil, err
	}
	return &CSVSink{w: w, schema: s}, nil
}

// Cell implements CellSink. A cell the schema cannot render (see
// csvSchema.appendRow) aborts the sweep.
func (s *CSVSink) Cell(c Cell, index, total int) error {
	row, err := s.schema.appendRow(s.row[:0], c)
	if err != nil {
		return err
	}
	s.row = row
	_, err = s.w.Write(row)
	return err
}

// writeCSV renders complete cells through a CSVSink whose schema carries
// an axis column iff some cell carries that axis.
func writeCSV(w io.Writer, cells []Cell, metrics bool) error {
	s := csvSchema{metrics: metrics}
	for _, c := range cells {
		s.temp = s.temp || c.Cond.TempC != 0
		s.device = s.device || c.Cond.Device != ""
	}
	sink, err := newCSVSink(w, s)
	if err != nil {
		return err
	}
	for i, c := range cells {
		if err := sink.Cell(c, i, len(cells)); err != nil {
			return err
		}
	}
	return nil
}

// resequencer restores canonical order between the worker pool and the
// sink: workers deliver cells at arbitrary grid indices, and the
// resequencer releases whole stripes — normalized, in index order — as
// soon as every earlier stripe has been released. It also backfills
// Result.Cells, so the buffered and streaming views are the same data.
type resequencer struct {
	mu        sync.Mutex
	cells     []Cell   // the Result's backing slice, filled in place
	stride    int      // cells per (workload, condition) stripe
	filled    []int    // completed-cell count per stripe
	next      int      // first stripe not yet released
	reference string   // normalization column
	sink      CellSink // nil: no release-order consumer
	sinkErr   error    // latched first sink failure; stops all further emission
}

func newResequencer(cells []Cell, stride int, reference string, sink CellSink) *resequencer {
	return &resequencer{
		cells:     cells,
		stride:    stride,
		filled:    make([]int, len(cells)/stride),
		reference: reference,
		sink:      sink,
	}
}

// complete records the measured cell at grid index idx and releases every
// stripe that is now contiguous with the released prefix. The first sink
// error is latched — later completions (from workers already in flight
// when the sweep starts aborting) must not re-emit the failed stripe's
// prefix — and returned wrapped; the caller aborts the sweep.
func (r *resequencer) complete(idx int, c Cell) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cells[idx] = c
	r.filled[idx/r.stride]++
	if r.sinkErr != nil {
		return r.sinkErr
	}
	for r.next < len(r.filled) && r.filled[r.next] == r.stride {
		base := r.next * r.stride
		stripe := r.cells[base : base+r.stride]
		normalizeStripe(stripe, r.reference)
		for i := 0; r.sink != nil && i < len(stripe); i++ {
			if err := r.sink.Cell(stripe[i], base+i, len(r.cells)); err != nil {
				r.sinkErr = fmt.Errorf("experiments: cell sink: %w", err)
				return r.sinkErr
			}
		}
		r.next++
	}
	return nil
}
