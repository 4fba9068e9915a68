package coord

// Malformed-input coverage for the coordinator's wire surface: whatever a
// client POSTs — truncated JSON, wrong types, hostile indices, wrong
// shapes — every endpoint must answer a typed 4xx JSON error and keep
// serving. The fuzz targets' seed corpora run on every plain `go test`.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// postRaw sends bytes to an endpoint and returns status plus decoded
// error body (if any).
func postRaw(t *testing.T, url, path string, body []byte) (int, errorResponse) {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	defer resp.Body.Close()
	var e errorResponse
	_ = json.NewDecoder(resp.Body).Decode(&e)
	return resp.StatusCode, e
}

// post serves one POST through h in process, with no listener and no
// client, and returns the recorded response.
func post(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// TestMalformedRequestsAnswerTypedErrors drives a table of hostile bodies
// at every endpoint and requires a 4xx JSON answer each time — then
// proves the server is still healthy by running a real submission.
func TestMalformedRequestsAnswerTypedErrors(t *testing.T) {
	c := New(Options{Clock: newFakeClock()})
	srv := httptest.NewServer(NewServer(c).Handler())
	defer srv.Close()

	// Undecodable bodies: every POST endpoint must answer 4xx with a JSON
	// error.
	undecodable := map[string][]byte{
		"empty":       []byte(``),
		"truncated":   []byte(`{"spec":{"config":`),
		"wrong-types": []byte(`{"spec":"yes please","shards":"many","lease_id":17,"worker_id":[],"record":"one"}`),
		"wrong-shape": []byte(`[[]]`),
	}
	for _, path := range []string{"/submit", "/lease", "/heartbeat", "/complete"} {
		for name, body := range undecodable {
			status, e := postRaw(t, srv.URL, path, body)
			if status < 400 || status >= 500 {
				t.Errorf("%s %s: status %d, want a 4xx rejection", path, name, status)
			}
			if e.Error == "" {
				t.Errorf("%s %s: rejection carried no JSON error body", path, name)
			}
		}
	}
	// Decodable-but-hostile bodies: the answer is endpoint-specific (a
	// zero-value lease request is honestly "no work", 204), but it is
	// never a 5xx and never kills the server.
	hostile := map[string][]byte{
		"null":           []byte(`null-adjacent garbage`),
		"hostile-record": []byte(`{"lease_id":"x","record":{"manifest":{"version":1,"total_cells":4,"cells":[0]},"results":[{"index":999999999,"key":"k"}]}}`),
		"deep-negative":  []byte(`{"record":{"manifest":{"shard_index":-9,"shard_count":-1,"cells":[-1,-2]},"results":[]}}`),
	}
	for _, path := range []string{"/submit", "/lease", "/heartbeat", "/complete"} {
		for name, body := range hostile {
			if status, _ := postRaw(t, srv.URL, path, body); status >= 500 {
				t.Errorf("%s %s: status %d — hostile payload reached an internal failure", path, name, status)
			}
		}
	}
	// GET endpoints: junk query strings.
	for _, target := range []string{"/job", "/job?id=%00%ff", "/result?id=", "/result?id=../../etc"} {
		resp, err := http.Get(srv.URL + target)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", target, resp.StatusCode)
		}
	}

	// Still alive: a real submission round-trips.
	client := NewClient(srv.URL)
	if _, err := client.Submit(context.Background(), SpecOf(testConfig(7), testVariants()), 2); err != nil {
		t.Fatalf("server unhealthy after malformed barrage: %v", err)
	}
}

// hostileShardRecords are /complete bodies for a live job whose manifest
// names no shard (no shards, a negative index, an index past the count)
// or strides past the largest int, each carrying one result. Every one
// must answer 400.
func hostileShardRecords(jobID string) map[string][]byte {
	body := func(index, count int) []byte {
		return []byte(fmt.Sprintf(`{"lease_id":"L","record":{"manifest":{"version":2,"config_hash":%q,"shard_index":%d,"shard_count":%d},"results":[{"index":0,"measurement":{"mean_us":1}}]}}`,
			jobID, index, count))
	}
	return map[string][]byte{
		"no-shards":       body(0, 0),
		"negative-index":  body(-1, 2),
		"index-past":      body(2, 2),
		"near-maxint":     body(math.MaxInt-1, math.MaxInt),
		"stride-overflow": body(1, math.MaxInt),
	}
}

// TestCompleteRejectsHostileShardCoordinates: a record whose (index,
// count) derives no valid cell list is a 400 that merges nothing.
func TestCompleteRejectsHostileShardCoordinates(t *testing.T) {
	c := New(Options{Clock: newFakeClock()})
	j, err := c.Submit(SpecOf(testConfig(7), testVariants()), 2)
	if err != nil {
		t.Fatal(err)
	}
	h := NewServer(c).Handler()
	for name, body := range hostileShardRecords(j.ID) {
		if code := post(h, "/complete", body).Code; code != http.StatusBadRequest {
			t.Errorf("%s: /complete answered %d, want 400", name, code)
		}
	}
	if st, _ := c.Status(j.ID); st.CellsDone != 0 || st.ShardsDone != 0 {
		t.Fatalf("hostile records changed the job: %+v", st)
	}
}

// TestLeaseToHungUpWorkerIsNotGranted: a /lease request whose client has
// already gone grants nothing, so the shard stays leasable instead of
// sitting under a lease no worker holds until its deadline.
func TestLeaseToHungUpWorkerIsNotGranted(t *testing.T) {
	c, _, _ := newTestCoordinator(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/lease", strings.NewReader(`{"worker_id":"gone"}`)).WithContext(ctx)
	NewServer(c).Handler().ServeHTTP(httptest.NewRecorder(), req)
	if _, ok := c.Lease("w"); !ok {
		t.Fatal("the hung-up worker's request took the only shard")
	}
}

// FuzzCompleteEndpoint throws arbitrary bytes at the most complex
// endpoint — /complete, whose payload nests a full shard record — against
// a coordinator with a live job. Any response is acceptable except a 5xx
// (which would mean an internal failure) or a panic. The handler is called
// in process, so coverage measures the coordinator rather than an HTTP
// client and server.
func FuzzCompleteEndpoint(f *testing.F) {
	c := New(Options{Clock: newFakeClock()})
	j, err := c.Submit(SpecOf(testConfig(7), testVariants()), 2)
	if err != nil {
		f.Fatal(err)
	}
	h := NewServer(c).Handler()

	f.Add([]byte(`{"lease_id":"L","record":{"manifest":{"version":1},"results":[]}}`))
	f.Add([]byte(`{"record":{"manifest":{"version":1,"config_hash":"h","total_cells":1,"cells":[0],"shard_count":1},"results":[{"index":0,"key":"k","measurement":{"mean_us":1}}]}}`))
	f.Add([]byte(`{"lease_id":"L","record":null}`))
	f.Add([]byte(`{"record":{"results":[{"index":-1},{"index":4294967295}]}}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	for _, body := range hostileShardRecords(j.ID) {
		f.Add(body)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		if code := post(h, "/complete", body).Code; code >= 500 {
			t.Fatalf("/complete answered %d to %q", code, body)
		}
	})
}

// FuzzSubmitEndpoint does the same for /submit, whose spec payload feeds
// grid resolution.
func FuzzSubmitEndpoint(f *testing.F) {
	valid, err := json.Marshal(submitRequest{Spec: SpecOf(testConfig(7), testVariants()), Shards: 2})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/3])
	huge, err := json.Marshal(submitRequest{Spec: SpecOf(testConfig(8), testVariants()), Shards: 1 << 40})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(huge) // valid spec: planning must not allocate per requested shard
	f.Add([]byte(`{"spec":{"config":{"requests":-1,"workloads":[]}},"shards":-7}`))
	f.Add([]byte(`{"spec":{},"shards":1000000000}`))
	f.Add(bytes.Repeat([]byte(`[`), 1024)) // deep nesting
	f.Add([]byte(`{"spec":{"variants":[{"name":"` + strings.Repeat("x", 4096) + `"}]}}`))

	h := NewServer(New(Options{Clock: newFakeClock()})).Handler()

	f.Fuzz(func(t *testing.T, body []byte) {
		if code := post(h, "/submit", body).Code; code >= 500 {
			t.Fatalf("/submit answered %d to %q", code, body)
		}
	})
}
