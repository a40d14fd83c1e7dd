package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"sideeffect/internal/report"
	"sideeffect/internal/server"
	"sideeffect/internal/store"
	"sideeffect/internal/workload"
)

func init() {
	experiments = append(experiments,
		experiment{"E19", "Watch-mode persistence: cold vs warm first-query latency and checkpoint throughput", expE19},
	)
}

// indexBenchRecord is one row of BENCH_index.json.
type indexBenchRecord struct {
	Name             string  `json:"name"`
	Sources          int     `json:"sources"`
	Procs            int     `json:"procs"`
	ColdFirstQueryMs float64 `json:"cold_first_query_ms"`
	WarmFirstQueryMs float64 `json:"warm_first_query_ms"`
	Speedup          float64 `json:"speedup"`
	CheckpointBytes  int64   `json:"checkpoint_bytes"`
	SaveMs           float64 `json:"save_ms"`
	RestoreMs        float64 `json:"restore_ms"`
	SaveMBps         float64 `json:"save_mbps"`
	RestoreMBps      float64 `json:"restore_mbps"`
}

// indexBenchDoc is BENCH_index.json.
type indexBenchDoc struct {
	benchHead
	Records []indexBenchRecord `json:"records"`
}

// expE19 measures what watch-mode persistence buys: the first query a
// freshly started daemon answers. A cold daemon pays a full analysis;
// a daemon restored from a checkpoint answers from the persisted store
// and pays only HTTP plus writing the bytes its import rendered. The
// experiment populates a server over N generated programs, checkpoints
// it through the real on-disk store (write-temp + fsync + rename),
// restores a second server from disk, and compares client-observed
// first-query latency per source — plus the save and load+import
// throughput that bounds how often a daemon can afford to checkpoint.
func expE19(quick bool) {
	sizes := []struct{ sources, procs int }{{16, 16}, {32, 32}}
	if quick {
		sizes = []struct{ sources, procs int }{{8, 12}}
	}

	post := func(url, src string) (cached bool, err error) {
		data, _ := json.Marshal(map[string]string{"source": src})
		resp, err := http.Post(url+"/analyze", "application/json", bytes.NewReader(data))
		if err != nil {
			return false, err
		}
		defer resp.Body.Close()
		var out struct {
			Cached bool `json:"cached"`
		}
		if resp.StatusCode/100 != 2 {
			var buf bytes.Buffer
			_, _ = buf.ReadFrom(resp.Body)
			return false, fmt.Errorf("POST /analyze: status %d: %s", resp.StatusCode, buf.String())
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		return out.Cached, err
	}
	firstQueryMean := func(url string, srcs []string, wantCached bool) (float64, error) {
		var total time.Duration
		for i, src := range srcs {
			t0 := time.Now()
			cached, err := post(url, src)
			if err != nil {
				return 0, err
			}
			total += time.Since(t0)
			if cached != wantCached {
				return 0, fmt.Errorf("source %d: cached=%v, want %v", i, cached, wantCached)
			}
		}
		return float64(total.Nanoseconds()) / float64(len(srcs)) / 1e6, nil
	}

	var records []indexBenchRecord
	rows := [][]string{{"sources", "procs/src", "cold 1st query", "warm 1st query", "speedup",
		"ckpt size", "save", "restore"}}
	for _, sz := range sizes {
		srcs := make([]string, sz.sources)
		for i := range srcs {
			srcs[i] = workload.Emit(workload.Random(workload.DefaultConfig(sz.procs, int64(1900+i))))
		}

		// Cold: every first query pays a full analysis.
		cold := server.New(server.Config{Workers: jobs})
		ts1 := httptest.NewServer(cold.Handler())
		coldMs, err := firstQueryMean(ts1.URL, srcs, false)
		if err != nil {
			fmt.Fprintf(os.Stderr, "E19: cold: %v\n", err)
			ts1.Close()
			return
		}

		// Checkpoint through the real on-disk store.
		dir, err := os.MkdirTemp("", "modand-e19-*")
		if err != nil {
			fmt.Fprintf(os.Stderr, "E19: %v\n", err)
			ts1.Close()
			return
		}
		defer os.RemoveAll(dir)
		st, err := store.Open(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "E19: %v\n", err)
			ts1.Close()
			return
		}
		t0 := time.Now()
		stats, err := st.Save(cold.ExportCheckpoint())
		saveDur := time.Since(t0)
		ts1.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "E19: save: %v\n", err)
			return
		}

		// Restore: load from disk, import, and answer every first query
		// from the persisted store.
		warm := server.New(server.Config{Workers: jobs})
		t0 = time.Now()
		cp, err := st.Load()
		if err != nil {
			fmt.Fprintf(os.Stderr, "E19: load: %v\n", err)
			return
		}
		warm.ImportCheckpoint(cp)
		restoreDur := time.Since(t0)
		ts2 := httptest.NewServer(warm.Handler())
		warmMs, err := firstQueryMean(ts2.URL, srcs, true)
		ts2.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "E19: warm: %v\n", err)
			return
		}

		mbps := func(d time.Duration) float64 {
			return float64(stats.Bytes) / 1e6 / d.Seconds()
		}
		rows = append(rows, []string{
			fmt.Sprint(sz.sources), fmt.Sprint(sz.procs),
			fmt.Sprintf("%.2fms", coldMs), fmt.Sprintf("%.3fms", warmMs),
			fmt.Sprintf("%.0fx", coldMs/warmMs),
			fmt.Sprintf("%.1fKB", float64(stats.Bytes)/1e3),
			fmt.Sprintf("%.2fms (%.0fMB/s)", float64(saveDur.Nanoseconds())/1e6, mbps(saveDur)),
			fmt.Sprintf("%.2fms (%.0fMB/s)", float64(restoreDur.Nanoseconds())/1e6, mbps(restoreDur)),
		})
		records = append(records, indexBenchRecord{
			Name:    fmt.Sprintf("E19/%dx%d", sz.sources, sz.procs),
			Sources: sz.sources, Procs: sz.procs,
			ColdFirstQueryMs: coldMs, WarmFirstQueryMs: warmMs, Speedup: coldMs / warmMs,
			CheckpointBytes: stats.Bytes,
			SaveMs:          float64(saveDur.Nanoseconds()) / 1e6,
			RestoreMs:       float64(restoreDur.Nanoseconds()) / 1e6,
			SaveMBps:        mbps(saveDur), RestoreMBps: mbps(restoreDur),
		})
	}

	fmt.Print(report.Table(rows))
	if err := writeBench("BENCH_index.json", &indexBenchDoc{Records: records}); err != nil {
		fmt.Fprintf(os.Stderr, "E19: %v\n", err)
		return
	}
	fmt.Println("\nRecords written to BENCH_index.json.")
	fmt.Println("Claim check: a restored daemon's first query skips analysis entirely —" +
		" warm latency should be flat in program size while cold latency grows with it," +
		" and checkpoint save/restore should run at disk-copy rates (the payload is" +
		" pre-rendered bytes, not recomputation), which is what makes a periodic" +
		" checkpoint cheap enough to leave on.")
}
