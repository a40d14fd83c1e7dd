package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"time"

	"sideeffect/internal/report"
	"sideeffect/internal/server"
	"sideeffect/internal/workload"
)

func init() {
	experiments = append(experiments,
		experiment{"E14", "Analysis server: cached, cold, and incremental-session request latency", expE14},
	)
}

// serverBenchRecord is one row of BENCH_server.json. For a profile
// that sends several programs per request, Requests and QPS count
// programs and the latencies are per request.
type serverBenchRecord struct {
	Name          string  `json:"name"`
	Cores         int     `json:"cores"`
	Workers       int     `json:"workers"`
	Requests      int     `json:"requests"`
	QPS           float64 `json:"qps"`
	P50Ms         float64 `json:"p50_ms"`
	P99Ms         float64 `json:"p99_ms"`
	CacheHitRatio float64 `json:"cache_hit_ratio"`
}

// serverBenchDoc is BENCH_server.json. Oversubscribed marks a run
// whose scheduler or worker pools are wider than the machine's CPU
// count: its qps and latency rows measure scheduling, not parallel
// speedup.
type serverBenchDoc struct {
	benchHead
	Oversubscribed bool                `json:"oversubscribed"`
	Records        []serverBenchRecord `json:"records"`
}

// expE14 measures the serving layer end to end over real HTTP: the
// cache-hit steady state, the cold miss path, the incremental session
// edit — the three request profiles a long-lived programming
// environment generates — and /batch throughput over a corpus larger
// than its server's cache. Latency is client-observed; the hit ratio
// comes from the responses themselves.
func expE14(quick bool) {
	requests := 200
	procs := 32
	if quick {
		requests = 40
		procs = 16
	}
	workers := jobs
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ts := httptest.NewServer(server.New(server.Config{Workers: jobs}).Handler())
	defer ts.Close()
	src := workload.Emit(workload.Random(workload.DefaultConfig(procs, 14)))
	// The batch profile has a server of its own whose cache holds half
	// of its eight sources, so nearly every program of a /batch request
	// is analyzed.
	bts := httptest.NewServer(server.New(server.Config{Workers: jobs, CacheEntries: 4}).Handler())
	defer bts.Close()
	batchSrcs := make([]string, 8)
	for i := range batchSrcs {
		batchSrcs[i] = workload.Emit(workload.Random(workload.DefaultConfig(24, int64(900+i))))
	}

	post := func(url string, body any, out any) error {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		resp, err := http.Post(url, "application/json", bytes.NewReader(data))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			var buf bytes.Buffer
			_, _ = buf.ReadFrom(resp.Body)
			return fmt.Errorf("POST %s: status %d: %s", url, resp.StatusCode, buf.String())
		}
		return json.NewDecoder(resp.Body).Decode(out)
	}
	hit := func(cached bool) int {
		if cached {
			return 1
		}
		return 0
	}

	// Each request of a profile carries programs sources; fire sends
	// request i and returns how many of them the server answered from
	// its cache.
	type profile struct {
		name     string
		programs int
		fire     func(i int) (hits int, err error)
	}
	var analyzeResp struct {
		Cached bool `json:"cached"`
	}
	var sess struct {
		ID string `json:"id"`
	}
	if err := post(ts.URL+"/session", map[string]string{"source": src}, &sess); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		return
	}
	var editResp struct {
		Mode string `json:"mode"`
	}
	profiles := []profile{
		{"analyze-warm", 1, func(i int) (int, error) {
			err := post(ts.URL+"/analyze", map[string]string{"source": src}, &analyzeResp)
			return hit(analyzeResp.Cached), err
		}},
		{"analyze-cold", 1, func(i int) (int, error) {
			err := post(ts.URL+"/analyze", map[string]string{"source": src + strings.Repeat("\n", i+1)}, &analyzeResp)
			return hit(analyzeResp.Cached), err
		}},
		{"session-edit", 1, func(i int) (int, error) {
			err := post(ts.URL+"/session/"+sess.ID+"/edit",
				map[string]string{"source": src + strings.Repeat("\n", i%2+1)}, &editResp)
			if err == nil && editResp.Mode != "incremental" {
				err = fmt.Errorf("edit %d took mode %q", i, editResp.Mode)
			}
			return 0, err
		}},
		{"batch-8srcs", len(batchSrcs), func(int) (int, error) {
			var resp struct {
				Results []struct {
					Cached bool   `json:"cached"`
					Error  string `json:"error"`
				} `json:"results"`
			}
			if err := post(bts.URL+"/batch", map[string][]string{"sources": batchSrcs}, &resp); err != nil {
				return 0, err
			}
			hits := 0
			for _, r := range resp.Results {
				if r.Error != "" {
					return 0, fmt.Errorf("/batch: %s", r.Error)
				}
				hits += hit(r.Cached)
			}
			return hits, nil
		}},
	}

	doc := serverBenchDoc{Oversubscribed: runtime.GOMAXPROCS(0) > runtime.NumCPU() || workers > runtime.NumCPU()}
	rows := [][]string{{"profile", "requests", "qps", "p50", "p99", "hit ratio"}}
	for _, p := range profiles {
		calls := requests / p.programs
		lat := make([]time.Duration, 0, calls)
		hits := 0
		start := time.Now()
		for i := 0; i < calls; i++ {
			t0 := time.Now()
			h, err := p.fire(i)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", p.name, err)
				return
			}
			lat = append(lat, time.Since(t0))
			hits += h
		}
		elapsed := time.Since(start)
		n := calls * p.programs
		p50, p99 := latencyQuantiles(lat)
		qps := float64(n) / elapsed.Seconds()
		ratio := float64(hits) / float64(n)
		rows = append(rows, []string{
			p.name, fmt.Sprint(n), f2(qps),
			fmt.Sprintf("%.2fms", p50), fmt.Sprintf("%.2fms", p99), f2(ratio),
		})
		doc.Records = append(doc.Records, serverBenchRecord{
			Name: "E14/" + p.name, Cores: runtime.GOMAXPROCS(0), Workers: workers,
			Requests: n, QPS: qps, P50Ms: p50, P99Ms: p99, CacheHitRatio: ratio,
		})
	}

	fmt.Print(report.Table(rows))
	if err := writeBench("BENCH_server.json", &doc); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		return
	}
	fmt.Printf("\nGOMAXPROCS = %d; records written to BENCH_server.json.\n", runtime.GOMAXPROCS(0))
	fmt.Println("Claim check: warm requests (hit ratio ~1.0) skip analysis entirely and" +
		" write the entry's report bytes rendered on the miss, so their remaining cost is" +
		" HTTP and they should clearly outrun the cold path, which now also renders those" +
		" bytes; incremental edits skip only the fixpoint solves (they still" +
		" parse, run core.Update, re-factor the sites whose DMOD row changed and solve" +
		" the section problems), so their lead over cold grows" +
		" with program size rather than appearing on toy inputs. The batch row counts" +
		" programs: its eight sources cycle through a four-entry cache, so nearly every" +
		" one is analyzed and its qps is miss-path throughput with HTTP and JSON" +
		" amortized over the worker pool.")
}
