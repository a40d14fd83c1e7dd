package main

import (
	"context"
	"fmt"
	"os"
	"runtime"

	"sideeffect"
	"sideeffect/internal/report"
	"sideeffect/internal/workload"
)

func init() {
	experiments = append(experiments,
		experiment{"E13", "Batch and parallel-stage analysis: worker-pool throughput vs the sequential pipeline", expE13},
	)
}

// batchBenchRecord is one row of BENCH_batch.json.
type batchBenchRecord struct {
	Name       string  `json:"name"`
	Cores      int     `json:"cores"`
	Workers    int     `json:"workers"`
	Programs   int     `json:"programs"`
	ProcsEach  int     `json:"procs_each"`
	SeqNsPerOp int64   `json:"seq_ns_per_op"`
	ParNsPerOp int64   `json:"par_ns_per_op"`
	Speedup    float64 `json:"speedup"`
}

// batchBenchDoc is BENCH_batch.json.
type batchBenchDoc struct {
	benchHead
	Records []batchBenchRecord `json:"records"`
}

// expE13 measures the concurrent engine twice: a corpus of programs
// through AnalyzeAllContext (program-level parallelism) and one large program
// through AnalyzeWith (stage-level parallelism), each against the
// one-worker pipeline. On a single-core box the ratio is expected to
// hover near 1.0 — the point of the sequential differential tests is
// that only the schedule changes — so the table records the core
// count alongside the speedup.
func expE13(quick bool) {
	corpusSizes := []int{64, 256}
	progsEach := 20
	if quick {
		corpusSizes = []int{64}
		progsEach = 8
	}
	workers := jobs
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	var records []batchBenchRecord
	rows := [][]string{{"workload", "programs", "procs each", "sequential", "parallel", "speedup"}}
	for _, n := range corpusSizes {
		srcs := make([]string, progsEach)
		for i := range srcs {
			srcs[i] = workload.Emit(workload.Random(workload.DefaultConfig(n, int64(100*n+i))))
		}
		seq := timeIt(func() { sideeffect.AnalyzeAllContext(context.Background(), srcs, sideeffect.Options{Workers: 1}) })
		par := timeIt(func() { sideeffect.AnalyzeAllContext(context.Background(), srcs, sideeffect.Options{Workers: workers}) })
		rows = append(rows, []string{
			fmt.Sprintf("batch N=%d", n), fmt.Sprint(progsEach), fmt.Sprint(n),
			dur(seq), dur(par), f2(float64(seq) / float64(par)),
		})
		records = append(records, batchBenchRecord{
			Name: fmt.Sprintf("AnalyzeAllContext/N=%d", n), Cores: runtime.GOMAXPROCS(0),
			Workers: workers, Programs: progsEach, ProcsEach: n,
			SeqNsPerOp: seq.Nanoseconds(), ParNsPerOp: par.Nanoseconds(),
			Speedup: float64(seq) / float64(par),
		})
	}

	// Stage-level parallelism inside one Analyze of a large program.
	bigN := 4096
	if quick {
		bigN = 1024
	}
	src := workload.Emit(workload.Random(workload.DefaultConfig(bigN, 7)))
	seq := timeIt(func() { mustAnalyze(src, sideeffect.Options{Workers: 1}) })
	par := timeIt(func() { mustAnalyze(src, sideeffect.Options{Workers: workers}) })
	rows = append(rows, []string{
		fmt.Sprintf("stages N=%d", bigN), "1", fmt.Sprint(bigN),
		dur(seq), dur(par), f2(float64(seq) / float64(par)),
	})
	records = append(records, batchBenchRecord{
		Name: fmt.Sprintf("ParallelStages/N=%d", bigN), Cores: runtime.GOMAXPROCS(0),
		Workers: workers, Programs: 1, ProcsEach: bigN,
		SeqNsPerOp: seq.Nanoseconds(), ParNsPerOp: par.Nanoseconds(),
		Speedup: float64(seq) / float64(par),
	})

	fmt.Print(report.Table(rows))
	if err := writeBench("BENCH_batch.json", &batchBenchDoc{Records: records}); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		return
	}
	fmt.Printf("\nGOMAXPROCS = %d, workers = %d; records written to BENCH_batch.json.\n",
		runtime.GOMAXPROCS(0), workers)
	fmt.Println("Claim check: results are schedule-independent (see the differential tests);" +
		" speedup ≥ 1.5 is expected for the batch rows on ≥ 4 cores, ≈ 1.0 on one core.")
}

func mustAnalyze(src string, opts sideeffect.Options) {
	if _, err := sideeffect.AnalyzeWith(src, opts); err != nil {
		panic(err)
	}
}
