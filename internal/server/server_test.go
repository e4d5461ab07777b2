package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/metrics"
	"repro/mcc"
)

// newTestServer starts a Server over httptest with test-friendly defaults;
// mutate cfg via mod before construction.
func newTestServer(t *testing.T, mod func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Workers:         2,
		QueueDepth:      8,
		DefaultDeadline: 30 * time.Second,
		Registry:        metrics.NewRegistry(),
	}
	if mod != nil {
		mod(&cfg)
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func benchBristol(t *testing.T, name string) string {
	t.Helper()
	b, ok := bench.ByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %q", name)
	}
	var buf bytes.Buffer
	if err := b.Build().WriteBristol(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func postBristol(t *testing.T, ts *httptest.Server, circuit, query string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest("POST", ts.URL+"/v1/optimize"+query, strings.NewReader(circuit))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// directOptimize runs the same circuit through mcc.Optimize with the options
// the server would use, against a fresh private database — the reference the
// service must match byte for byte.
func directOptimize(t *testing.T, circuit string, workers, rounds int) string {
	t.Helper()
	net, err := mcc.ReadBristol(strings.NewReader(circuit))
	if err != nil {
		t.Fatal(err)
	}
	res := mcc.Optimize(context.Background(), net,
		mcc.WithWorkers(workers),
		mcc.WithMaxRounds(rounds),
	)
	if res.Err != nil {
		t.Fatalf("direct optimize: %v", res.Err)
	}
	var buf bytes.Buffer
	if err := res.Network.WriteBristol(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestOptimizeMatchesDirect is the service's core contract: a storm of
// concurrent requests against one shared warm database must return networks
// byte-identical to what a direct, cold mcc.Optimize run produces. This is
// the determinism pin — results may not depend on database warmth, request
// interleaving, or worker count.
func TestOptimizeMatchesDirect(t *testing.T) {
	// The whole storm must be admitted: this test pins determinism, not load
	// shedding, so the queue is sized above the request count.
	_, ts := newTestServer(t, func(c *Config) { c.QueueDepth = 64 })

	circuits := []string{"adder-32", "cmp-32-unsigned-lt", "xy-router", "decoder"}
	type job struct {
		name, circuit, want string
		workers             int
	}
	var jobs []job
	for _, name := range circuits {
		circuit := benchBristol(t, name)
		for _, w := range []int{1, 4} {
			jobs = append(jobs, job{name, circuit, directOptimize(t, circuit, w, 2), w})
		}
	}

	// Three concurrent passes over every (circuit, workers) pair: later
	// passes hit a database warmed by earlier ones and must not notice.
	var wg sync.WaitGroup
	errc := make(chan error, 3*len(jobs))
	for pass := 0; pass < 3; pass++ {
		for _, j := range jobs {
			wg.Add(1)
			go func(j job) {
				defer wg.Done()
				req, err := http.NewRequest("POST",
					fmt.Sprintf("%s/v1/optimize?rounds=2&workers=%d", ts.URL, j.workers),
					strings.NewReader(j.circuit))
				if err != nil {
					errc <- err
					return
				}
				req.Header.Set("Accept", "text/plain")
				resp, err := ts.Client().Do(req)
				if err != nil {
					errc <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errc <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("%s/w%d: status %d: %s", j.name, j.workers, resp.StatusCode, body)
					return
				}
				if string(body) != j.want {
					errc <- fmt.Errorf("%s/w%d: served network differs from direct mcc.Optimize", j.name, j.workers)
				}
			}(j)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestOptimizeReportHeaders checks the text/plain response's X-MC-* headers
// against the report of an equivalent JSON request.
func TestOptimizeReportHeaders(t *testing.T) {
	_, ts := newTestServer(t, nil)
	circuit := benchBristol(t, "adder-32")

	resp, _ := postBristol(t, ts, circuit, "?rounds=2", map[string]string{"Accept": "text/plain"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	for _, h := range []string{"X-Mc-And-Before", "X-Mc-And-After", "X-Mc-And-Depth-After", "X-Mc-Rounds"} {
		if resp.Header.Get(h) == "" {
			t.Errorf("missing header %s", h)
		}
	}

	resp2, body := postBristol(t, ts, circuit, "?rounds=2", nil)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp2.StatusCode, body)
	}
	var or OptimizeResponse
	if err := json.Unmarshal(body, &or); err != nil {
		t.Fatal(err)
	}
	if got, want := resp.Header.Get("X-Mc-And-After"), fmt.Sprint(or.Report.ANDAfter); got != want {
		t.Errorf("X-MC-And-After = %s, JSON report says %s", got, want)
	}
	if or.Report.ANDAfter > or.Report.ANDBefore {
		t.Errorf("optimization increased AND count: %d -> %d", or.Report.ANDBefore, or.Report.ANDAfter)
	}
	if or.Bristol == "" {
		t.Error("JSON response missing bristol network")
	}
}

// TestOptimizeJSONNetwork round-trips a JSON gate-list request: the response
// must come back in the same encoding and compute the same function.
func TestOptimizeJSONNetwork(t *testing.T) {
	_, ts := newTestServer(t, nil)
	b, _ := bench.ByName("cmp-32-unsigned-lt")
	orig := b.Build()
	payload, err := json.Marshal(OptimizeRequest{
		Network: EncodeNetworkJSON(orig),
		Options: RequestOptions{MaxRounds: 2, Verify: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postBristol(t, ts, string(payload), "", map[string]string{"Content-Type": "application/json"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var or OptimizeResponse
	if err := json.Unmarshal(body, &or); err != nil {
		t.Fatal(err)
	}
	if or.Network == nil {
		t.Fatalf("gate-list request answered without a gate-list network: %s", body)
	}
	if or.Bristol != "" {
		t.Error("gate-list response also carries bristol")
	}
	opt, err := or.Network.Build()
	if err != nil {
		t.Fatal(err)
	}
	in := make([]uint64, orig.NumPIs())
	for i := range in {
		in[i] = 0x0123_4567_89AB_CDEF * uint64(2*i+1)
	}
	wa, wb := orig.Simulate(in), opt.Simulate(in)
	for i := range wa {
		if wa[i] != wb[i] {
			t.Fatalf("PO %d differs between original and optimized", i)
		}
	}
	if or.Report.ANDAfter > or.Report.ANDBefore {
		t.Errorf("AND count increased: %+v", or.Report)
	}
}

func TestOptimizeBadRequests(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) { c.MaxPayloadBytes = 512 })
	// Only the sub-millisecond deadline case reaches the engine. The pause
	// outlasts a 1 ms deadline, so that case must time out rather than
	// complete under the 30 s default.
	s.beforeOptimize = func() { time.Sleep(20 * time.Millisecond) }
	valid := "2 5\n3 1 1 1\n1 1\n\n2 1 0 1 3 AND\n2 1 3 2 4 XOR\n"

	cases := []struct {
		name, body, query string
		hdr               map[string]string
		want              int
		code              ErrorCode
	}{
		{"malformed bristol", "not a circuit", "", nil, http.StatusBadRequest, CodeInvalidNetwork},
		{"bad cost model", valid, "?cost=area", nil, http.StatusBadRequest, CodeInvalidOption},
		{"bad rounds", valid, "?rounds=-1", nil, http.StatusBadRequest, CodeInvalidOption},
		{"bad cut size", valid, "?k=9", nil, http.StatusBadRequest, CodeInvalidOption},
		{"bad deadline", valid, "?deadline=soon", nil, http.StatusBadRequest, CodeInvalidOption},
		{"sub-millisecond deadline", valid, "?deadline=500us", nil, http.StatusGatewayTimeout, CodeDeadlineExceeded},
		{"bad boolean", valid, "?verify=perhaps", nil, http.StatusBadRequest, CodeInvalidOption},
		{"unknown query param", valid, "?turbo=1", nil, http.StatusBadRequest, CodeUnknownField},
		{"json without network", `{"options": {}}`, "", map[string]string{"Content-Type": "application/json"}, http.StatusBadRequest, CodeInvalidRequest},
		{"json with both encodings", `{"bristol": "x", "network": {"inputs": 0}}`, "", map[string]string{"Content-Type": "application/json"}, http.StatusBadRequest, CodeInvalidRequest},
		{"json unknown field", `{"bristol": "x", "nonsense": 1}`, "", map[string]string{"Content-Type": "application/json"}, http.StatusBadRequest, CodeUnknownField},
		{"oversized payload", valid + strings.Repeat("#", 1024), "", nil, http.StatusRequestEntityTooLarge, CodePayloadTooLarge},
	}
	for _, tc := range cases {
		resp, body := postBristol(t, ts, tc.body, tc.query, tc.hdr)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.want, body)
			continue
		}
		var er errorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error.Code == "" || er.Error.Message == "" {
			t.Errorf("%s: error response not structured JSON: %s", tc.name, body)
			continue
		}
		if er.Error.Code != tc.code {
			t.Errorf("%s: code %q, want %q (%s)", tc.name, er.Error.Code, tc.code, body)
		}
	}
}

// TestQueueFullSheds saturates a Workers=1, QueueDepth=1 server with blocked
// requests and checks that the next one is shed with 429 + Retry-After
// instead of queueing without bound.
func TestQueueFullSheds(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	s, ts := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 1
	})
	s.beforeOptimize = func() {
		started <- struct{}{}
		<-release
	}
	circuit := benchBristol(t, "decoder")

	// First request occupies the worker slot; second occupies the queue slot.
	// Distinct rounds values give each request its own cache key so the
	// result cache cannot coalesce them onto one flight.
	var wg sync.WaitGroup
	codes := make(chan int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(rounds int) {
			defer wg.Done()
			resp, _ := postBristol(t, ts, circuit, fmt.Sprintf("?rounds=%d", rounds), nil)
			codes <- resp.StatusCode
		}(i + 1)
	}
	// Wait until the first request is provably running (inside the seam).
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("first request never reached the engine")
	}
	// Wait until the second is provably queued (pending=2 = workers+queue).
	for deadline := time.Now().Add(10 * time.Second); s.pending.Load() < 2; {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Saturated: the third request must be shed immediately.
	resp, body := postBristol(t, ts, circuit, "?rounds=3", nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server returned %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}

	close(release)
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Errorf("admitted request finished with %d, want 200", code)
		}
	}
	if got := metricValue(t, s, "mcserved_queue_rejections_total"); got < 1 {
		t.Errorf("mcserved_queue_rejections_total = %v, want >= 1", got)
	}
}

// TestDeadlineExpiresCleanly parks a request behind a blocked worker with a
// short deadline: it must get a clean 504 and leave no goroutine behind.
func TestDeadlineExpiresCleanly(t *testing.T) {
	before := runtime.NumGoroutine()

	release := make(chan struct{})
	started := make(chan struct{}, 1)
	s, ts := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 4
	})
	s.beforeOptimize = func() {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
	}
	circuit := benchBristol(t, "decoder")

	done := make(chan int, 1)
	go func() {
		resp, _ := postBristol(t, ts, circuit, "", nil)
		done <- resp.StatusCode
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("blocker request never reached the engine")
	}

	// This request queues behind the blocker and times out waiting.
	resp, body := postBristol(t, ts, circuit, "?deadline=50ms", nil)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired request returned %d, want 504: %s", resp.StatusCode, body)
	}
	if got := metricValue(t, s, "mcserved_deadline_timeouts_total"); got < 1 {
		t.Errorf("mcserved_deadline_timeouts_total = %v, want >= 1", got)
	}

	close(release)
	if code := <-done; code != http.StatusOK {
		t.Errorf("blocker request finished with %d, want 200", code)
	}
	ts.Close()

	// No goroutine may outlive its request. Poll: the HTTP machinery needs a
	// moment to wind down.
	for deadline := time.Now().Add(10 * time.Second); ; {
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after drain", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGracefulDrain checks the SIGTERM path: BeginDrain rejects new work with
// 503 while the in-flight request completes with 200, and Drain returns once
// it does.
func TestGracefulDrain(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	s, ts := newTestServer(t, nil)
	s.beforeOptimize = func() {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
	}
	circuit := benchBristol(t, "decoder")

	done := make(chan int, 1)
	go func() {
		resp, _ := postBristol(t, ts, circuit, "", nil)
		done <- resp.StatusCode
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight request never reached the engine")
	}

	s.BeginDrain()
	resp, _ := postBristol(t, ts, circuit, "", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining server admitted a request: %d", resp.StatusCode)
	}
	if resp, _ := http.Get(ts.URL + "/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining server still ready: %d", resp.StatusCode)
	}

	go func() {
		time.Sleep(20 * time.Millisecond)
		close(release)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if code := <-done; code != http.StatusOK {
		t.Errorf("in-flight request finished with %d, want 200", code)
	}
}

func TestHealthAndReadiness(t *testing.T) {
	s, ts := newTestServer(t, nil)
	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Errorf("healthz = %d", got)
	}
	if got := get("/readyz"); got != http.StatusOK {
		t.Errorf("readyz = %d", got)
	}
	s.SetReady(false)
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("readyz while warming = %d, want 503", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Errorf("healthz while warming = %d, want 200", got)
	}
	s.SetReady(true)
	if got := get("/readyz"); got != http.StatusOK {
		t.Errorf("readyz after warm-up = %d", got)
	}
}

// TestMetricsEndpoint optimizes once and checks that the scrape carries
// server, engine, and database metrics with live values.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, nil)
	circuit := benchBristol(t, "adder-32")
	if resp, body := postBristol(t, ts, circuit, "?rounds=2", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize: %d: %s", resp.StatusCode, body)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{
		`mcserved_requests_total{code="200"} 1`,
		"# TYPE mcserved_request_duration_seconds histogram",
		"mcserved_worker_slots 2",
		"mcserved_ready 1",
		"mcc_runs_total 1",
		"mcc_rounds_total",
		"mcdb_classifications_total",
		"mcdb_class_cache_hit_rate",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	if strings.Contains(text, "NaN") {
		t.Error("metrics output contains NaN")
	}
}

// metricValue reads one untyped sample back out of the registry's text
// exposition — the same path a Prometheus scrape takes.
func metricValue(t *testing.T, s *Server, name string) float64 {
	t.Helper()
	var sb strings.Builder
	if err := s.Registry().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v float64
			if _, err := fmt.Sscanf(line[len(name)+1:], "%g", &v); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}
