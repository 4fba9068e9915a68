package coord

// Fault injection for the coordinator protocol. FaultTransport is an
// http.RoundTripper that sits between a Client and a real server and
// misbehaves on a script: dropping requests before they arrive, losing
// responses after the server already acted (the classic
// retry-an-idempotent-mutation case), duplicating deliveries, synthesizing
// 5xx bursts, and stalling. It exists so the retry/backoff and
// idempotency machinery can be exercised deterministically — the
// transport-hardening tests drive every fault from a fixed script and a
// fake sleeper, with no real network flakiness and no wall-clock time.

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
)

// Fault is one scripted transport misbehavior.
type Fault int

const (
	// FaultPass forwards the request untouched.
	FaultPass Fault = iota
	// FaultDrop fails the request before it reaches the server: the
	// server's state does not change. Models connection refused / DNS
	// failures / the coordinator being down.
	FaultDrop
	// FaultDropResponse delivers the request — the server acts on it —
	// then loses the response. The caller sees a transport error and
	// cannot tell FaultDrop from FaultDropResponse; only protocol
	// idempotency makes the retry safe. Models a connection reset between
	// request and response.
	FaultDropResponse
	// FaultDup delivers the request twice and returns the second
	// response. Models a network-level duplicate of an at-least-once
	// delivery.
	FaultDup
	// Fault503 synthesizes a 503 without contacting the server. Models an
	// overloaded proxy or a coordinator refusing while its journal disk
	// is unavailable.
	Fault503
	// FaultDelay invokes the transport's OnDelay hook, then forwards the
	// request. With a fake clock the hook advances simulated time; the
	// request itself is not slowed.
	FaultDelay
)

func (f Fault) String() string {
	switch f {
	case FaultPass:
		return "pass"
	case FaultDrop:
		return "drop"
	case FaultDropResponse:
		return "drop-response"
	case FaultDup:
		return "dup"
	case Fault503:
		return "503"
	case FaultDelay:
		return "delay"
	}
	return fmt.Sprintf("fault(%d)", int(f))
}

// FaultTransport injects scripted faults per URL path. Requests to a path
// consume its script one fault per attempt, in order; when the script is
// exhausted (or for unscripted paths) requests pass through. Safe for
// concurrent use.
type FaultTransport struct {
	// Base performs real round-trips; nil uses http.DefaultTransport.
	Base http.RoundTripper
	// OnFault observes every injected (non-pass) fault, if set.
	OnFault func(path string, f Fault)
	// OnDelay runs for each FaultDelay, if set.
	OnDelay func(path string)

	mu       sync.Mutex
	script   map[string][]Fault
	attempts map[string]int
}

// NewFaultTransport wraps base (nil for the default transport).
func NewFaultTransport(base http.RoundTripper) *FaultTransport {
	return &FaultTransport{
		Base:     base,
		script:   make(map[string][]Fault),
		attempts: make(map[string]int),
	}
}

// Script appends faults to path's script. Each request to path consumes
// one entry.
func (t *FaultTransport) Script(path string, faults ...Fault) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.script[path] = append(t.script[path], faults...)
}

// Attempts reports how many round-trips have been attempted against path
// (including dropped and synthesized ones).
func (t *FaultTransport) Attempts(path string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempts[path]
}

func (t *FaultTransport) next(path string) Fault {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempts[path]++
	s := t.script[path]
	if len(s) == 0 {
		return FaultPass
	}
	f := s[0]
	t.script[path] = s[1:]
	return f
}

func (t *FaultTransport) base() http.RoundTripper {
	if t.Base != nil {
		return t.Base
	}
	return http.DefaultTransport
}

// errFaultInjected marks transport errors this transport synthesized.
var errFaultInjected = errors.New("faultinject")

// RoundTrip applies the next scripted fault for the request's path.
// Injected failures surface as plain errors, which http.Client wraps in
// *url.Error — exactly the shape isTransportError classifies as
// transient, so the client under test cannot tell them from real network
// failures.
func (t *FaultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	path := req.URL.Path
	f := t.next(path)
	if f != FaultPass && t.OnFault != nil {
		t.OnFault(path, f)
	}
	switch f {
	case FaultDrop:
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, fmt.Errorf("%w: %s %s dropped before send", errFaultInjected, req.Method, path)
	case Fault503:
		if req.Body != nil {
			io.Copy(io.Discard, req.Body)
			req.Body.Close()
		}
		return &http.Response{
			Status:     "503 Service Unavailable",
			StatusCode: http.StatusServiceUnavailable,
			Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header:  http.Header{"Content-Type": []string{"application/json"}},
			Body:    io.NopCloser(strings.NewReader(`{"error":"faultinject: synthesized 503 burst"}`)),
			Request: req,
		}, nil
	case FaultDropResponse:
		resp, err := t.base().RoundTrip(req)
		if err != nil {
			return nil, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, fmt.Errorf("%w: response to %s %s lost", errFaultInjected, req.Method, path)
	case FaultDup:
		if dup, err := cloneRequest(req); err == nil {
			if resp, err := t.base().RoundTrip(dup); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
		return t.base().RoundTrip(req)
	case FaultDelay:
		if t.OnDelay != nil {
			t.OnDelay(path)
		}
	}
	return t.base().RoundTrip(req)
}

// cloneRequest copies req with a replayable body (GetBody is set for all
// byte-backed requests, which every Client call is).
func cloneRequest(req *http.Request) (*http.Request, error) {
	dup := req.Clone(req.Context())
	if req.Body == nil || req.GetBody == nil {
		return dup, nil
	}
	body, err := req.GetBody()
	if err != nil {
		return nil, err
	}
	dup.Body = body
	return dup, nil
}
