package sideeffect_test

// E14 — serving benchmarks. These drive the analysis server over real
// HTTP (httptest) and record queries/sec, client-observed p50/p99
// latency, and the cache hit ratio into BENCH_server.json, the artifact
// behind EXPERIMENTS.md's E14 table. The file lives in the external
// test package: internal/server imports the root package, so the root
// package's own tests cannot import it back.
//
// Run with:
//
//	go test -bench=BenchmarkServer -benchtime=2s .

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"sideeffect/internal/server"
	"sideeffect/internal/workload"
)

// benchServerRecord is one row of BENCH_server.json, shared with
// cmd/experiments/exp_server.go (E14): both producers merge into the
// same file by name.
type benchServerRecord struct {
	Name          string  `json:"name"`
	Cores         int     `json:"cores"`
	Workers       int     `json:"workers"`
	Requests      int     `json:"requests"`
	QPS           float64 `json:"qps"`
	P50Ms         float64 `json:"p50_ms"`
	P99Ms         float64 `json:"p99_ms"`
	CacheHitRatio float64 `json:"cache_hit_ratio"`
}

// mergeBenchServer folds one record into BENCH_server.json, replacing
// any previous row with the same name and keeping the memory sample E14
// wrote. Benchmarks only run under -bench, so plain `go test` never
// touches the file.
func mergeBenchServer(tb testing.TB, rec benchServerRecord) {
	tb.Helper()
	var doc struct {
		Cores          int                 `json:"cores"`
		NumCPU         int                 `json:"num_cpu"`
		Oversubscribed bool                `json:"oversubscribed"`
		Mem            json.RawMessage     `json:"mem,omitempty"` // E14's memory sample, kept as written
		Records        []benchServerRecord `json:"records"`
	}
	if data, err := os.ReadFile("BENCH_server.json"); err == nil {
		_ = json.Unmarshal(data, &doc)
	}
	doc.Cores = runtime.GOMAXPROCS(0)
	doc.NumCPU = runtime.NumCPU()
	doc.Oversubscribed = doc.Cores > doc.NumCPU
	for _, r := range doc.Records {
		if r.Workers > doc.NumCPU {
			doc.Oversubscribed = true
		}
	}
	kept := doc.Records[:0]
	for _, r := range doc.Records {
		if r.Name != rec.Name {
			kept = append(kept, r)
		}
	}
	doc.Records = append(kept, rec)
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		tb.Fatalf("marshal BENCH_server.json: %v", err)
	}
	if err := os.WriteFile("BENCH_server.json", append(out, '\n'), 0o644); err != nil {
		tb.Fatalf("write BENCH_server.json: %v", err)
	}
}

// TestMergeBenchServerKeepsMem merges a record into a file E14 wrote
// and checks that the memory sample and the other rows survive.
func TestMergeBenchServerKeepsMem(t *testing.T) {
	t.Chdir(t.TempDir())
	const mem = `{"heap_alloc_bytes": 1, "sys_bytes": 2, "peak_rss_bytes": 3}`
	before := `{"cores": 2, "num_cpu": 2, "oversubscribed": false, "mem": ` + mem +
		`, "records": [{"name": "E14Row", "qps": 5}, {"name": "ServerAnalyzeWarm", "qps": 1}]}`
	if err := os.WriteFile("BENCH_server.json", []byte(before), 0o644); err != nil {
		t.Fatal(err)
	}
	mergeBenchServer(t, benchServerRecord{Name: "ServerAnalyzeWarm", QPS: 7})
	data, err := os.ReadFile("BENCH_server.json")
	if err != nil {
		t.Fatal(err)
	}
	var after struct {
		Mem     map[string]int      `json:"mem"`
		Records []benchServerRecord `json:"records"`
	}
	if err := json.Unmarshal(data, &after); err != nil {
		t.Fatal(err)
	}
	if want := map[string]int{"heap_alloc_bytes": 1, "sys_bytes": 2, "peak_rss_bytes": 3}; fmt.Sprint(after.Mem) != fmt.Sprint(want) {
		t.Errorf("mem after the merge = %v, want %v:\n%s", after.Mem, want, data)
	}
	if len(after.Records) != 2 || after.Records[0].Name != "E14Row" || after.Records[1].QPS != 7 {
		t.Errorf("records after the merge = %+v", after.Records)
	}
}

// latencyStats reduces per-request wall times to the record fields.
func latencyStats(lat []time.Duration) (p50, p99 float64) {
	if len(lat) == 0 {
		return 0, 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	at := func(q float64) float64 {
		i := int(q * float64(len(lat)-1))
		return float64(lat[i].Nanoseconds()) / 1e6
	}
	return at(0.50), at(0.99)
}

// postJSON is the minimal bench client; it fails the benchmark on any
// non-2xx status.
func postJSON(tb testing.TB, url string, body any, out any) {
	tb.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		tb.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		tb.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, buf.String())
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkServerAnalyzeWarm measures the steady state of a programming
// environment re-querying unchanged modules: every request after the
// first is a cache hit.
func BenchmarkServerAnalyzeWarm(b *testing.B) {
	ts := httptest.NewServer(server.New(server.Config{}).Handler())
	defer ts.Close()
	src := workload.Emit(workload.Random(workload.DefaultConfig(32, 14)))
	req := map[string]string{"source": src}
	var resp struct {
		Cached bool `json:"cached"`
	}
	postJSON(b, ts.URL+"/analyze", req, &resp) // prime the cache
	hits := 0
	lat := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		postJSON(b, ts.URL+"/analyze", req, &resp)
		lat = append(lat, time.Since(start))
		if resp.Cached {
			hits++
		}
	}
	b.StopTimer()
	p50, p99 := latencyStats(lat)
	qps := float64(b.N) / b.Elapsed().Seconds()
	b.ReportMetric(qps, "qps")
	b.ReportMetric(p99, "p99-ms")
	mergeBenchServer(b, benchServerRecord{
		Name: "ServerAnalyzeWarm", Cores: runtime.GOMAXPROCS(0), Workers: runtime.GOMAXPROCS(0), Requests: b.N,
		QPS: qps, P50Ms: p50, P99Ms: p99, CacheHitRatio: float64(hits) / float64(b.N),
	})
}

// BenchmarkServerAnalyzeCold measures the miss path: every request
// carries a texturally distinct source (same program, one more trailing
// newline), so each one parses and analyzes from scratch.
func BenchmarkServerAnalyzeCold(b *testing.B) {
	ts := httptest.NewServer(server.New(server.Config{CacheEntries: 64}).Handler())
	defer ts.Close()
	src := workload.Emit(workload.Random(workload.DefaultConfig(32, 14)))
	var resp struct {
		Cached bool `json:"cached"`
	}
	hits := 0
	lat := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := map[string]string{"source": src + strings.Repeat("\n", i+1)}
		start := time.Now()
		postJSON(b, ts.URL+"/analyze", req, &resp)
		lat = append(lat, time.Since(start))
		if resp.Cached {
			hits++
		}
	}
	b.StopTimer()
	p50, p99 := latencyStats(lat)
	qps := float64(b.N) / b.Elapsed().Seconds()
	b.ReportMetric(qps, "qps")
	b.ReportMetric(p99, "p99-ms")
	mergeBenchServer(b, benchServerRecord{
		Name: "ServerAnalyzeCold", Cores: runtime.GOMAXPROCS(0), Workers: runtime.GOMAXPROCS(0), Requests: b.N,
		QPS: qps, P50Ms: p50, P99Ms: p99, CacheHitRatio: float64(hits) / float64(b.N),
	})
}

// BenchmarkServerSessionEdit measures the incremental session path:
// each request is an additive edit absorbed by delta propagation, the
// paper's recompilation scenario served over HTTP.
func BenchmarkServerSessionEdit(b *testing.B) {
	ts := httptest.NewServer(server.New(server.Config{}).Handler())
	defer ts.Close()
	src := workload.Emit(workload.Random(workload.DefaultConfig(32, 14)))
	var sess struct {
		ID string `json:"id"`
	}
	postJSON(b, ts.URL+"/session", map[string]string{"source": src}, &sess)
	editURL := ts.URL + "/session/" + sess.ID + "/edit"
	var resp struct {
		Mode string `json:"mode"`
	}
	incremental := 0
	lat := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Alternate between two whitespace-distinct spellings of the
		// same program; both directions are additive (empty delta).
		req := map[string]string{"source": src + strings.Repeat("\n", i%2+1)}
		start := time.Now()
		postJSON(b, editURL, req, &resp)
		lat = append(lat, time.Since(start))
		if resp.Mode == "incremental" {
			incremental++
		}
	}
	b.StopTimer()
	if incremental != b.N {
		b.Fatalf("%d of %d edits were incremental", incremental, b.N)
	}
	p50, p99 := latencyStats(lat)
	qps := float64(b.N) / b.Elapsed().Seconds()
	b.ReportMetric(qps, "qps")
	b.ReportMetric(p99, "p99-ms")
	mergeBenchServer(b, benchServerRecord{
		Name: "ServerSessionEdit", Cores: runtime.GOMAXPROCS(0), Workers: runtime.GOMAXPROCS(0), Requests: b.N,
		QPS: qps, P50Ms: p50, P99Ms: p99, CacheHitRatio: 0,
	})
}

// BenchmarkServerBatch measures /batch throughput over a small corpus,
// amortizing HTTP and JSON overhead across the worker pool.
func BenchmarkServerBatch(b *testing.B) {
	ts := httptest.NewServer(server.New(server.Config{CacheEntries: 4}).Handler())
	defer ts.Close()
	srcs := make([]string, 8)
	for i := range srcs {
		srcs[i] = workload.Emit(workload.Random(workload.DefaultConfig(24, int64(900+i))))
	}
	var resp struct {
		Results []struct {
			Cached bool   `json:"cached"`
			Error  string `json:"error"`
		} `json:"results"`
	}
	lat := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		postJSON(b, ts.URL+"/batch", map[string][]string{"sources": srcs}, &resp)
		lat = append(lat, time.Since(start))
		for _, r := range resp.Results {
			if r.Error != "" {
				b.Fatal(r.Error)
			}
		}
	}
	b.StopTimer()
	p50, p99 := latencyStats(lat)
	n := b.N * len(srcs)
	qps := float64(n) / b.Elapsed().Seconds()
	b.ReportMetric(qps, "programs/s")
	mergeBenchServer(b, benchServerRecord{
		Name: fmt.Sprintf("ServerBatch/%dsrcs", len(srcs)), Cores: runtime.GOMAXPROCS(0),
		Workers: runtime.GOMAXPROCS(0), Requests: n, QPS: qps, P50Ms: p50, P99Ms: p99, CacheHitRatio: 0,
	})
}
