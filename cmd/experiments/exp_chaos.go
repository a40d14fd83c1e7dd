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
	"sync"
	"time"

	"sideeffect/internal/report"
	"sideeffect/internal/server"
	"sideeffect/internal/workload"
)

func init() {
	experiments = append(experiments,
		experiment{"E17", "Chaos: outcome mix and tail latency under fault injection and load shedding", expE17},
	)
}

// chaosBenchRecord is one row of BENCH_chaos.json: the served-outcome
// mix and client-observed latency at one injected fault rate.
type chaosBenchRecord struct {
	Name      string  `json:"name"`
	FaultRate float64 `json:"fault_rate"`
	Requests  int     `json:"requests"`
	OK        int     `json:"ok"`
	Faulted   int     `json:"faulted"` // fault_injected + internal
	Timeout   int     `json:"timeout"` // deadline/cancellation
	Shed      int     `json:"shed"`    // 429 overloaded
	ErrorRate float64 `json:"error_rate"`
	P50Ms     float64 `json:"p50_ms"`
	P99Ms     float64 `json:"p99_ms"`
}

// chaosBenchDoc is BENCH_chaos.json.
type chaosBenchDoc struct {
	benchHead
	Seed    int64              `json:"seed"`
	Records []chaosBenchRecord `json:"records"`
}

// expE17 sweeps the injected fault rate and records what the hardened
// serving layer turns those faults into: every response is either a
// correct 200 or a structured error, so the table is the degradation
// curve — error rate should track the fault rate (amplified by the
// number of fault points a request crosses) while the p99 of the
// surviving requests stays flat. A final row saturates a deliberately
// tiny admission gate to show shedding: excess load becomes fast 429s
// instead of queue collapse.
func expE17(quick bool) {
	requests := 600
	rates := []float64{0, 0.01, 0.05, 0.20}
	if quick {
		requests = 150
		rates = []float64{0, 0.05}
	}
	src := workload.Emit(workload.Random(workload.DefaultConfig(24, 17)))
	// A second program keeps the cache from absorbing every request:
	// half the traffic recomputes, so pipeline fault points stay hot.
	src2 := workload.Emit(workload.Random(workload.DefaultConfig(24, 18)))

	classify := func(status int, body []byte) string {
		if status == http.StatusOK {
			return "ok"
		}
		var eb struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		_ = json.Unmarshal(body, &eb)
		switch eb.Error.Code {
		case "fault_injected", "internal":
			return "faulted"
		case "timeout":
			return "timeout"
		case "overloaded":
			return "shed"
		default:
			return "other"
		}
	}
	fire := func(url string, body any) (string, time.Duration, error) {
		data, err := json.Marshal(body)
		if err != nil {
			return "", 0, err
		}
		t0 := time.Now()
		resp, err := http.Post(url, "application/json", bytes.NewReader(data))
		if err != nil {
			return "", 0, err
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		return classify(resp.StatusCode, buf.Bytes()), time.Since(t0), nil
	}
	var records []chaosBenchRecord
	rows := [][]string{{"profile", "fault rate", "requests", "ok", "faulted", "timeout", "shed", "error rate", "p50", "p99"}}
	addRow := func(rec chaosBenchRecord) {
		records = append(records, rec)
		rows = append(rows, []string{
			rec.Name, fmt.Sprintf("%.2f", rec.FaultRate), fmt.Sprint(rec.Requests),
			fmt.Sprint(rec.OK), fmt.Sprint(rec.Faulted), fmt.Sprint(rec.Timeout),
			fmt.Sprint(rec.Shed), f2(rec.ErrorRate),
			fmt.Sprintf("%.2fms", rec.P50Ms), fmt.Sprintf("%.2fms", rec.P99Ms),
		})
	}

	for _, rate := range rates {
		ts := httptest.NewServer(server.New(server.Config{
			Workers: jobs, FaultRate: rate, FaultSeed: 1,
		}).Handler())
		counts := map[string]int{}
		lat := make([]time.Duration, 0, requests)
		for i := 0; i < requests; i++ {
			body := map[string]string{"source": src}
			if i%2 == 1 {
				body["source"] = src2 + strings.Repeat("\n", i/2+1)
			}
			class, d, err := fire(ts.URL+"/analyze", body)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				ts.Close()
				return
			}
			counts[class]++
			if class == "ok" {
				lat = append(lat, d)
			}
		}
		ts.Close()
		p50, p99 := latencyQuantiles(lat)
		errRate := 1 - float64(counts["ok"])/float64(requests)
		addRow(chaosBenchRecord{
			Name: fmt.Sprintf("faults-%.2f", rate), FaultRate: rate, Requests: requests,
			OK: counts["ok"], Faulted: counts["faulted"] + counts["other"], Timeout: counts["timeout"],
			ErrorRate: errRate, P50Ms: p50, P99Ms: p99,
		})
	}

	// Shedding profile: 2 slots and a 4-deep queue, saturated by six
	// large cold analyses (2 computing, 4 queued) while a burst of small
	// requests arrives. The gate turns the burst into instant 429s, and
	// once the storm passes, follow-up requests see unloaded latency —
	// the queue never grew beyond its bound, so there is no backlog to
	// drain through.
	shedTS := httptest.NewServer(server.New(server.Config{
		Workers: jobs, MaxInFlight: 2, MaxQueue: 4,
	}).Handler())
	bigProcs := 600
	burst := requests
	if quick {
		bigProcs = 300
	}
	big := workload.Emit(workload.Random(workload.DefaultConfig(bigProcs, 23)))
	var (
		mu      sync.Mutex
		shedCnt = map[string]int{}
		bigWG   sync.WaitGroup
		wg      sync.WaitGroup
	)
	for i := 0; i < 6; i++ {
		bigWG.Add(1)
		go func(i int) {
			defer bigWG.Done()
			_, _, _ = fire(shedTS.URL+"/analyze", map[string]string{
				"source": big + strings.Repeat("\n", i+1),
			})
		}(i)
	}
	time.Sleep(150 * time.Millisecond) // let the big requests occupy gate and queue
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			class, _, err := fire(shedTS.URL+"/analyze", map[string]string{
				"source": src2 + strings.Repeat("\n", i+1),
			})
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				shedCnt["transport"]++
				return
			}
			shedCnt[class]++
		}(i)
	}
	wg.Wait()
	bigWG.Wait()
	// Recovery latency: the storm is over; the gate is open again.
	recLat := make([]time.Duration, 0, 50)
	for i := 0; i < 50; i++ {
		class, d, err := fire(shedTS.URL+"/analyze", map[string]string{"source": src})
		if err == nil && class == "ok" {
			recLat = append(recLat, d)
		}
	}
	shedTS.Close()
	p50, p99 := latencyQuantiles(recLat)
	addRow(chaosBenchRecord{
		Name: "shed-burst", FaultRate: 0, Requests: burst,
		OK: shedCnt["ok"], Faulted: shedCnt["faulted"] + shedCnt["other"] + shedCnt["transport"],
		Timeout: shedCnt["timeout"], Shed: shedCnt["shed"],
		ErrorRate: 1 - float64(shedCnt["ok"])/float64(burst), P50Ms: p50, P99Ms: p99,
	})

	fmt.Print(report.Table(rows))
	if err := writeBench("BENCH_chaos.json", &chaosBenchDoc{Seed: 1, Records: records}); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		return
	}
	fmt.Printf("\nGOMAXPROCS = %d; records written to BENCH_chaos.json.\n", runtime.GOMAXPROCS(0))
	fmt.Println("Claim check: the error rate should grow roughly linearly with the injected" +
		" fault rate (each request crosses a handful of fault points, so the per-request" +
		" error probability is about 1-(1-p)^k) while every failure stays a structured" +
		" error; in the shed-burst row the admission gate converts overload into 429s" +
		" and the accepted requests' p99 stays near the unloaded profile instead of" +
		" stacking up behind an unbounded queue.")
}
