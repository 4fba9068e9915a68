package coord

import (
	"bytes"
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"readretry/internal/experiments"
	"readretry/internal/experiments/shard"
	"readretry/internal/rng"
)

// The coordinator protocol is five JSON-over-HTTP endpoints (DESIGN.md
// §10 specifies the state machine they drive):
//
//	POST /submit     {spec, shards}        → {job_id, total_cells, shards, done}
//	POST /lease      {worker_id}           → 200 Lease | 204 (nothing available)
//	POST /heartbeat  {lease_id}            → {deadline} | 410 (expired/unknown)
//	POST /complete   {lease_id, record}    → {duplicate} | 409 (foreign) | 400 (malformed)
//	GET  /job?id=…                         → JobStatus
//	GET  /result?id=…                      → experiments.Result (blocks until the job finalizes)
//
// Statuses carry typed meaning the Client reconstructs: 410 → ErrLeaseExpired
// (or ErrUnknownLease), 409 → *ForeignRecordError, 400 → ErrBadRecord.

type submitRequest struct {
	Spec   Spec `json:"spec"`
	Shards int  `json:"shards"`
}

// SubmitReceipt acknowledges a submission.
type SubmitReceipt struct {
	JobID      string `json:"job_id"`
	TotalCells int    `json:"total_cells"`
	Shards     int    `json:"shards"`
	// Done reports the job already finalized at submission time (fully
	// covered by the coordinator's cache, or a duplicate of a finished
	// sweep).
	Done bool `json:"done"`
}

type leaseRequest struct {
	WorkerID string `json:"worker_id"`
}

type heartbeatRequest struct {
	LeaseID string `json:"lease_id"`
}

type heartbeatResponse struct {
	Deadline time.Time `json:"deadline"`
}

type completeRequest struct {
	LeaseID string        `json:"lease_id"`
	Record  *shard.Record `json:"record"`
}

type completeResponse struct {
	Duplicate bool `json:"duplicate"`
}

type errorResponse struct {
	Error string `json:"error"`
	// Kind discriminates the typed errors so clients rebuild them:
	// "lease_expired", "unknown_lease", "foreign_record", "bad_record",
	// "journal" (retryable: the coordinator refused because its journal
	// was unwritable).
	Kind       string `json:"kind,omitempty"`
	ConfigHash string `json:"config_hash,omitempty"`
}

// Request-body ceilings, enforced with http.MaxBytesReader so an oversized
// or malicious payload is cut off at the limit (413) instead of buffering
// unbounded. Submissions and completion records legitimately carry whole
// sweep grids; everything else is a few fixed fields.
const (
	maxRecordBody = 64 << 20
	maxSmallBody  = 1 << 20
)

// Server serves a Coordinator over HTTP.
type Server struct {
	c         *Coordinator
	drain     chan struct{}
	drainOnce sync.Once
}

// NewServer wraps a coordinator.
func NewServer(c *Coordinator) *Server { return &Server{c: c, drain: make(chan struct{})} }

// Drain puts the server (and its coordinator) into graceful-shutdown mode:
// new leases are refused, blocked /result long-polls return 503 so their
// clients disconnect, but heartbeats and in-flight /complete deliveries
// still land — the shutdown path calls Drain first, then http.Server.
// Shutdown, which waits for those in-flight requests.
func (s *Server) Drain() {
	s.c.Drain()
	s.drainOnce.Do(func() { close(s.drain) })
}

// Handler returns the protocol's http.Handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/submit", s.handleSubmit)
	mux.HandleFunc("/lease", s.handleLease)
	mux.HandleFunc("/heartbeat", s.handleHeartbeat)
	mux.HandleFunc("/complete", s.handleComplete)
	mux.HandleFunc("/job", s.handleJob)
	mux.HandleFunc("/result", s.handleResult)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	resp := errorResponse{Error: err.Error()}
	var foreign *ForeignRecordError
	switch {
	case errors.As(err, &foreign):
		resp.Kind = "foreign_record"
		resp.ConfigHash = foreign.ConfigHash
	case errors.Is(err, ErrLeaseExpired):
		resp.Kind = "lease_expired"
	case errors.Is(err, ErrUnknownLease):
		resp.Kind = "unknown_lease"
	case errors.Is(err, ErrBadRecord):
		resp.Kind = "bad_record"
	case errors.Is(err, ErrJournal):
		resp.Kind = "journal"
	}
	writeJSON(w, status, resp)
}

// decode enforces the method, caps the body at limit bytes, and parses it;
// a false return means the response has been written. Anything a client
// can send — truncated JSON, wrong types, garbage, a body over the cap —
// comes back as a typed 4xx, never a panic or an unbounded read.
func decode(w http.ResponseWriter, r *http.Request, method string, limit int64, v interface{}) bool {
	if r.Method != method {
		w.Header().Set("Allow", method)
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("coord: %s needs %s", r.URL.Path, method))
		return false
	}
	if v == nil {
		return true
	}
	body := http.MaxBytesReader(w, r.Body, limit)
	if err := json.NewDecoder(body).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("coord: %s request exceeds %d bytes", r.URL.Path, tooBig.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("coord: parsing %s request: %w", r.URL.Path, err))
		return false
	}
	return true
}

// submitStatus maps a Submit/Complete error to its wire status: journal
// failures are 503 (retryable refusals — the WAL discipline rejected the
// mutation without touching state, so a retry once the disk recovers is
// safe and loses nothing); everything else is the client's fault (400).
func submitStatus(err error) int {
	if errors.Is(err, ErrJournal) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	if !decode(w, r, http.MethodPost, maxRecordBody, &req) {
		return
	}
	j, err := s.c.Submit(req.Spec, req.Shards)
	if err != nil {
		writeError(w, submitStatus(err), err)
		return
	}
	st, _ := s.c.Status(j.ID)
	writeJSON(w, http.StatusOK, SubmitReceipt{
		JobID: j.ID, TotalCells: st.TotalCells, Shards: st.ShardCount, Done: st.Done,
	})
}

func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if !decode(w, r, http.MethodPost, maxSmallBody, &req) {
		return
	}
	if r.Context().Err() != nil {
		// The worker hung up: a lease granted now would reach no one and
		// hold its shard until the deadline.
		return
	}
	l, ok := s.c.Lease(req.WorkerID)
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, l)
}

func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if !decode(w, r, http.MethodPost, maxSmallBody, &req) {
		return
	}
	deadline, err := s.c.Heartbeat(req.LeaseID)
	if err != nil {
		writeError(w, http.StatusGone, err)
		return
	}
	writeJSON(w, http.StatusOK, heartbeatResponse{Deadline: deadline})
}

func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req completeRequest
	if !decode(w, r, http.MethodPost, maxRecordBody, &req) {
		return
	}
	dup, err := s.c.Complete(req.LeaseID, req.Record)
	if err != nil {
		var foreign *ForeignRecordError
		if errors.As(err, &foreign) {
			writeError(w, http.StatusConflict, err)
			return
		}
		writeError(w, submitStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, completeResponse{Duplicate: dup})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if !decode(w, r, http.MethodGet, maxSmallBody, nil) {
		return
	}
	st, ok := s.c.Status(r.URL.Query().Get("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("coord: unknown job %q", r.URL.Query().Get("id")))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	if !decode(w, r, http.MethodGet, maxSmallBody, nil) {
		return
	}
	id := r.URL.Query().Get("id")
	j, ok := s.c.Job(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("coord: unknown job %q", id))
		return
	}
	select {
	case <-j.Done(): // a finalized result is served even while draining
	default:
		select {
		case <-r.Context().Done():
			return // client gave up; nothing useful to write
		case <-s.drain:
			writeError(w, http.StatusServiceUnavailable,
				errors.New("coord: coordinator draining for shutdown"))
			return
		case <-j.Done():
		}
	}
	res, err := j.Result()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// RetryPolicy bounds the client's retry loop: up to Attempts tries per
// call, sleeping an exponentially growing, jittered delay between them.
// Only failures that are safe and useful to retry are retried — transport
// errors (the coordinator was unreachable; every protocol mutation is
// idempotent, so re-sending a request whose response was lost is safe) and
// 5xx statuses (the coordinator refused without changing state, e.g. a
// journal write failure). Typed protocol errors (expired leases, foreign
// records, malformed requests) and other 4xx are never retried: the
// coordinator answered, and the same request will fail the same way.
type RetryPolicy struct {
	// Attempts is the total number of tries; values below 1 mean one try
	// (no retry).
	Attempts int
	// BaseDelay seeds the exponential backoff; the delay before retry n
	// is min(BaseDelay·2ⁿ, MaxDelay), jittered down by up to half.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Jitter returns a uniform float64 in [0,1); nil draws from a
	// locally seeded source created on first use — never math/rand's
	// global state, so two clients' backoff schedules are independent
	// and no other subsystem's random sequence is perturbed. Fixed
	// functions make backoff schedules deterministic in tests.
	Jitter func() float64
}

// jitterSalt decorrelates fallback jitter seeds when crypto entropy is
// unavailable: each newJitter takes the next Weyl-sequence increment.
var jitterSalt atomic.Uint64

// newJitter returns an independent uniform-[0,1) stream for one client's
// backoff. Each call builds its own rng.Source (seeded from crypto
// entropy, falling back to a process-local Weyl counter), so clients
// share no state with each other or with any simulation stream; the
// closure serializes draws for concurrent retries.
func newJitter() func() float64 {
	var b [8]byte
	seed := jitterSalt.Add(0x9e3779b97f4a7c15)
	if _, err := crand.Read(b[:]); err == nil {
		seed ^= binary.LittleEndian.Uint64(b[:])
	}
	src := rng.New(seed)
	var mu sync.Mutex
	return func() float64 {
		mu.Lock()
		defer mu.Unlock()
		return src.Float64()
	}
}

// DefaultRetry is the policy NewClient installs: four attempts spanning
// roughly a second of backoff, enough to ride out a coordinator restart
// without masking a real outage for long.
func DefaultRetry() RetryPolicy {
	return RetryPolicy{
		Attempts:  4,
		BaseDelay: 100 * time.Millisecond,
		MaxDelay:  2 * time.Second,
		Jitter:    newJitter(),
	}
}

// delay computes the jittered backoff before retry attempt (0-based).
func (p RetryPolicy) delay(attempt int) time.Duration {
	d := p.BaseDelay
	if d <= 0 {
		d = 100 * time.Millisecond
	}
	for i := 0; i < attempt && d < p.MaxDelay; i++ {
		d *= 2
	}
	if p.MaxDelay > 0 && d > p.MaxDelay {
		d = p.MaxDelay
	}
	jitter := p.Jitter
	if jitter == nil {
		// A hand-built policy without a source: draw from a fresh
		// locally seeded one. Costlier per retry than the memoized
		// DefaultRetry closure, but retries are rare and the global
		// math/rand state stays untouched.
		jitter = newJitter()
	}
	// Uniform in [d/2, d): full pressure never lands in lockstep.
	return d/2 + time.Duration(jitter()*float64(d/2))
}

// Client speaks the coordinator protocol. The zero value is unusable; use
// NewClient, which normalizes bare host:port addresses to http URLs and
// installs DefaultRetry.
type Client struct {
	BaseURL string
	HTTP    *http.Client
	// Retry governs re-sending failed calls; see RetryPolicy for what
	// qualifies. The zero value disables retries.
	Retry RetryPolicy
	// RequestTimeout bounds each individual attempt of every call except
	// the /result long-poll (which legitimately blocks for a whole sweep).
	// Zero means no per-attempt deadline beyond the caller's ctx.
	RequestTimeout time.Duration
	// Sleep waits between retries; nil uses a real timer. It returns false
	// if ctx ended first. Tests inject a fake to run backoff schedules
	// without wall-clock time.
	Sleep func(ctx context.Context, d time.Duration) bool
}

// NewClient builds a client for a coordinator at addr ("host:port" or a
// full http URL).
func NewClient(addr string) *Client {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return &Client{
		BaseURL:        strings.TrimRight(addr, "/"),
		HTTP:           &http.Client{},
		Retry:          DefaultRetry(),
		RequestTimeout: 30 * time.Second,
	}
}

func (cl *Client) httpClient() *http.Client {
	if cl.HTTP != nil {
		return cl.HTTP
	}
	return http.DefaultClient
}

func (cl *Client) sleep(ctx context.Context, d time.Duration) bool {
	if cl.Sleep != nil {
		return cl.Sleep(ctx, d)
	}
	return sleep(ctx, d)
}

// retryable reports whether one attempt's outcome is worth another try.
func retryable(status int, err error) bool {
	if err != nil && isTransportError(err) {
		return true
	}
	return status >= 500
}

// call performs one protocol call with the client's retry policy: up to
// Retry.Attempts round-trips, backing off between retryable failures. The
// /result long-poll is exempt from the per-attempt RequestTimeout but not
// from retries — if the connection drops mid-poll, the re-sent GET simply
// resumes waiting.
func (cl *Client) call(ctx context.Context, method, path string, in, out interface{}) (int, error) {
	attempts := cl.Retry.Attempts
	if attempts < 1 {
		attempts = 1
	}
	var status int
	var err error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 && !cl.sleep(ctx, cl.Retry.delay(attempt-1)) {
			return status, err // ctx ended while backing off; report the last failure
		}
		status, err = cl.callOnce(ctx, method, path, in, out)
		if err == nil || !retryable(status, err) || ctx.Err() != nil {
			return status, err
		}
	}
	return status, err
}

// callOnce performs one round-trip; out is filled on 2xx. Non-2xx statuses
// return the decoded typed error.
func (cl *Client) callOnce(ctx context.Context, method, path string, in, out interface{}) (int, error) {
	if cl.RequestTimeout > 0 && !strings.HasPrefix(path, "/result") {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cl.RequestTimeout)
		defer cancel()
	}
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return 0, fmt.Errorf("coord: encoding %s request: %w", path, err)
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, cl.BaseURL+path, body)
	if err != nil {
		return 0, fmt.Errorf("coord: %w", err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := cl.httpClient().Do(req)
	if err != nil {
		return 0, fmt.Errorf("coord: %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		if out != nil && resp.StatusCode != http.StatusNoContent {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				return resp.StatusCode, fmt.Errorf("coord: decoding %s response: %w", path, err)
			}
		}
		return resp.StatusCode, nil
	}
	var e errorResponse
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if json.Unmarshal(data, &e) != nil || e.Error == "" {
		e.Error = fmt.Sprintf("%s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	switch e.Kind {
	case "foreign_record":
		return resp.StatusCode, &ForeignRecordError{ConfigHash: e.ConfigHash}
	case "lease_expired":
		return resp.StatusCode, fmt.Errorf("%w (coordinator: %s)", ErrLeaseExpired, e.Error)
	case "unknown_lease":
		return resp.StatusCode, fmt.Errorf("%w (coordinator: %s)", ErrUnknownLease, e.Error)
	case "bad_record":
		return resp.StatusCode, fmt.Errorf("%w (coordinator: %s)", ErrBadRecord, e.Error)
	case "journal":
		return resp.StatusCode, fmt.Errorf("%w (coordinator: %s)", ErrJournal, e.Error)
	}
	return resp.StatusCode, fmt.Errorf("coord: %s: %s", path, e.Error)
}

// Submit registers a sweep with the coordinator.
func (cl *Client) Submit(ctx context.Context, spec Spec, shards int) (SubmitReceipt, error) {
	var receipt SubmitReceipt
	_, err := cl.call(ctx, http.MethodPost, "/submit", submitRequest{Spec: spec, Shards: shards}, &receipt)
	return receipt, err
}

// Lease requests the next available shard; ok is false when none is
// available right now (poll again later).
func (cl *Client) Lease(ctx context.Context, workerID string) (*Lease, bool, error) {
	var l Lease
	status, err := cl.call(ctx, http.MethodPost, "/lease", leaseRequest{WorkerID: workerID}, &l)
	if err != nil {
		return nil, false, err
	}
	if status == http.StatusNoContent {
		return nil, false, nil
	}
	return &l, true, nil
}

// Heartbeat renews a lease; ErrLeaseExpired (wrapped) means the worker has
// lost the shard and must stop working on it.
func (cl *Client) Heartbeat(ctx context.Context, leaseID string) (time.Time, error) {
	var resp heartbeatResponse
	_, err := cl.call(ctx, http.MethodPost, "/heartbeat", heartbeatRequest{LeaseID: leaseID}, &resp)
	return resp.Deadline, err
}

// Complete delivers a completion record; the duplicate flag reports the
// shard had already completed through another delivery.
func (cl *Client) Complete(ctx context.Context, leaseID string, rec *shard.Record) (bool, error) {
	var resp completeResponse
	_, err := cl.call(ctx, http.MethodPost, "/complete", completeRequest{LeaseID: leaseID, Record: rec}, &resp)
	return resp.Duplicate, err
}

// Status fetches one job's snapshot.
func (cl *Client) Status(ctx context.Context, jobID string) (JobStatus, error) {
	var st JobStatus
	_, err := cl.call(ctx, http.MethodGet, "/job?id="+url.QueryEscape(jobID), nil, &st)
	return st, err
}

// Result blocks until the job finalizes and returns its merged result.
// Go's JSON float encoding is exact (shortest round-trip form), so the
// decoded result — and any CSV written from it — is byte-identical to the
// coordinator's.
func (cl *Client) Result(ctx context.Context, jobID string) (*experiments.Result, error) {
	var res experiments.Result
	_, err := cl.call(ctx, http.MethodGet, "/result?id="+url.QueryEscape(jobID), nil, &res)
	if err != nil {
		return nil, err
	}
	return &res, nil
}

// isTransportError reports a failure to reach the coordinator at all (as
// opposed to an HTTP-level response): the signal the worker loop uses to
// tell "coordinator finished and exited" from a protocol error.
func isTransportError(err error) bool {
	var urlErr *url.Error
	return errors.As(err, &urlErr)
}

// workerID returns a default worker identity: host + pid.
func workerID() string {
	host, err := os.Hostname()
	if err != nil {
		host = "worker"
	}
	return fmt.Sprintf("%s-%d", host, os.Getpid())
}
