package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sideeffect/internal/workload"
)

// newHTTPServer exposes an already-built Server so tests can reach its
// internals (injector, cache, admission gate) alongside the HTTP face.
func newHTTPServer(t *testing.T, srv *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func copyAll(dst io.Writer, src io.Reader) (int64, error) { return io.Copy(dst, src) }

// TestAdmissionShedsWith429 saturates a one-slot server whose queue
// holds one waiter: the third concurrent request must be shed with 429
// and a Retry-After header while the first two eventually succeed.
func TestAdmissionShedsWith429(t *testing.T) {
	srv := New(Config{Workers: 1, MaxInFlight: 1, MaxQueue: 1})
	ts := newHTTPServer(t, srv)

	release := make(chan struct{})
	held := make(chan struct{})
	var holdOnce sync.Once
	// Occupy the only slot via a slow request: a session create against
	// a big program. Simplest reliable hold: grab the admission slot
	// directly, as a request in its computing phase would.
	go func() {
		if err := srv.adm.acquire(context.Background()); err != nil {
			t.Error("direct acquire failed")
		}
		holdOnce.Do(func() { close(held) })
		<-release
		srv.adm.release()
	}()
	<-held

	// One waiter fits in the queue; it parks until the slot frees.
	waiterDone := make(chan int, 1)
	go func() {
		var out struct{}
		waiterDone <- post(t, ts.URL+"/analyze", map[string]any{"source": srvSrc}, &out)
	}()
	// Give the waiter time to enqueue, then overflow the queue.
	deadline := time.Now().Add(2 * time.Second)
	for srv.adm.queued.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if srv.adm.queued.Load() == 0 {
		t.Fatal("waiter never enqueued")
	}

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/analyze",
		strings.NewReader(fmt.Sprintf("{%q: %q}", "source", srvSrc)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow request got %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}

	close(release)
	if code := <-waiterDone; code != http.StatusOK {
		t.Fatalf("queued request finished with %d", code)
	}
	if srv.adm.shed.Load() == 0 {
		t.Error("shed counter not incremented")
	}
}

// TestInjectedPanicIsolatedPerRequest arms the injector at rate 1 (all
// kinds default to panic/error/delay mix; pin to panic via seed-driven
// kind selection is not possible, so use the route fault point which
// fires on every request) and asserts the server answers structured
// errors and keeps serving afterwards.
func TestInjectedPanicIsolatedPerRequest(t *testing.T) {
	srv := New(Config{Workers: 1, FaultRate: 1, FaultSeed: 9})
	ts := newHTTPServer(t, srv)

	var eb errorBody
	code := post(t, ts.URL+"/analyze", map[string]any{"source": srvSrc}, &eb)
	if code != http.StatusInternalServerError && code != http.StatusServiceUnavailable {
		t.Fatalf("faulted request got %d (%+v)", code, eb)
	}
	if eb.Error.Code == "" {
		t.Fatal("faulted request returned no structured error")
	}
	// The process survived; a fault-free server still answers. (This
	// server is saturated with faults, so just verify /healthz, which
	// carries no fault point.)
	var ok map[string]any
	if code := request(t, http.MethodGet, ts.URL+"/healthz", nil, &ok); code != http.StatusOK || ok["ok"] != true {
		t.Fatalf("healthz after fault: %d %v", code, ok)
	}
	if n := srv.faults.Total(); n == 0 {
		t.Error("injector fired no faults at rate 1")
	}
}

// TestCacheCorruptionRecomputes plants a wrong fingerprint in a cached
// entry and asserts the next hit evicts and recomputes instead of
// serving it.
func TestCacheCorruptionRecomputes(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := newHTTPServer(t, srv)

	var first struct {
		Hash   string `json:"hash"`
		Cached bool   `json:"cached"`
	}
	if code := post(t, ts.URL+"/analyze", map[string]any{"source": srvSrc}, &first); code != http.StatusOK {
		t.Fatalf("first analyze: %d", code)
	}
	// Corrupt the stored entry's integrity sum.
	e, ok := srv.cache.Get(first.Hash)
	if !ok {
		t.Fatal("entry not cached")
	}
	e.sum++
	var second struct {
		Hash   string `json:"hash"`
		Cached bool   `json:"cached"`
	}
	if code := post(t, ts.URL+"/analyze", map[string]any{"source": srvSrc}, &second); code != http.StatusOK {
		t.Fatalf("analyze over corrupt entry: %d", code)
	}
	if second.Cached {
		t.Fatal("corrupt entry served as a cache hit")
	}
	if srv.cache.Stats().Corruptions == 0 {
		t.Fatal("corruption not counted")
	}
	// The recomputed entry is healthy again.
	var third struct {
		Cached bool `json:"cached"`
	}
	post(t, ts.URL+"/analyze", map[string]any{"source": srvSrc}, &third)
	if !third.Cached {
		t.Fatal("recomputed entry not served from cache")
	}
}

// TestBatchCancellationDrainsPool cancels a /batch mid-flight and
// asserts the worker pool drains: every entry carries a report or an
// error, and a follow-up request is served.
func TestBatchCancellationDrainsPool(t *testing.T) {
	srv := New(Config{Workers: 2, Timeout: 50 * time.Millisecond, MaxRequestBytes: 64 << 20})
	ts := newHTTPServer(t, srv)

	cfg := workload.DefaultConfig(400, 7)
	srcs := make([]string, 24)
	for i := range srcs {
		c := cfg
		c.Seed = int64(i)
		srcs[i] = workload.Emit(workload.Random(c))
	}
	var out struct {
		Results []struct {
			Error  string `json:"error"`
			Report any    `json:"report"`
		} `json:"results"`
	}
	code := post(t, ts.URL+"/batch", map[string]any{"sources": srcs}, &out)
	if code != http.StatusOK {
		t.Fatalf("batch got %d", code)
	}
	var timedOut int
	for _, r := range out.Results {
		switch {
		case r.Error != "":
			timedOut++
		case r.Report != nil:
		default:
			t.Fatal("entry with neither report nor error")
		}
	}
	if timedOut == 0 {
		t.Skip("batch finished inside the 50ms budget; nothing was cancelled")
	}
	// The handler returns only after the pool drained (runBatch runs on
	// the request goroutine), so a follow-up request succeeds: no worker
	// slot was stranded.
	var follow struct{}
	if code := post(t, ts.URL+"/analyze", map[string]any{"source": srvSrc}, &follow); code != http.StatusOK {
		t.Fatalf("server wedged after cancelled batch: %d", code)
	}
}

// TestMetricsExposeRobustness checks the new counters render.
func TestMetricsExposeRobustness(t *testing.T) {
	srv := New(Config{Workers: 1, FaultRate: 0.5, FaultSeed: 3})
	ts := newHTTPServer(t, srv)
	for i := 0; i < 6; i++ {
		var out map[string]any
		post(t, ts.URL+"/analyze", map[string]any{"source": srvSrc}, &out)
	}
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := new(strings.Builder)
	if _, err := copyAll(buf, resp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"modand_shed_total",
		"modand_panics_total",
		"modand_degraded_total",
		"modand_errors_total",
		"modand_cache_corruptions_total",
		"modand_faults_injected_total",
		"modand_queue_depth",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %s", want)
		}
	}
}
