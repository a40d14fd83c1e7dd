package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"sideeffect/internal/core"
	"sideeffect/internal/ir"
	"sideeffect/internal/workload"
)

func init() {
	experiments = append(experiments,
		experiment{"E16", "Allocator ablation: Analyze's arena vs the heap allocator", expE16},
	)
}

// allocBenchRecord is one row of BENCH_core.json: one workload under
// the two core allocators. The rows measure the solver loop the batch
// engine runs per worker — core MOD+USE per program, skeleton shared,
// each Result dropped before the next program — so the only variable
// is where the analysis's bit vectors live. Speedup is heap_ns_per_op
// over arena_ns_per_op.
type allocBenchRecord struct {
	Name      string `json:"name"`
	Config    string `json:"config"`
	Cores     int    `json:"cores"`
	Workers   int    `json:"workers"`
	Programs  int    `json:"programs"`
	ProcsEach int    `json:"procs_each"`

	HeapNsPerOp  int64 `json:"heap_ns_per_op"`
	ArenaNsPerOp int64 `json:"arena_ns_per_op"`

	HeapAllocsPerOp  int64 `json:"heap_allocs_per_op"`
	ArenaAllocsPerOp int64 `json:"arena_allocs_per_op"`
	HeapBytesPerOp   int64 `json:"heap_bytes_per_op"`
	ArenaBytesPerOp  int64 `json:"arena_bytes_per_op"`

	Speedup float64 `json:"speedup"`
}

// writeBenchCore writes the records as BENCH_core.json in the current
// directory.
func writeBenchCore(records []allocBenchRecord) error {
	out, err := json.MarshalIndent(struct {
		Cores   int                `json:"cores"`
		NumCPU  int                `json:"num_cpu"`
		Mem     memSample          `json:"mem"`
		Records []allocBenchRecord `json:"records"`
	}{runtime.GOMAXPROCS(0), runtime.NumCPU(), sampleMem(), records}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile("BENCH_core.json", append(out, '\n'), 0o644)
}

// medianTime runs f twice to warm pools and caches, then k more times,
// and returns the median wall time — the median is stable against the
// occasional run that absorbs a GC cycle triggered by a neighbour.
func medianTime(f func(), k int) time.Duration {
	f()
	f()
	times := make([]time.Duration, k)
	for i := range times {
		start := time.Now()
		f()
		times[i] = time.Since(start)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[k/2]
}

// allocsPerOp reports the heap allocations and bytes one run of f
// costs, averaged over k runs on a quiesced heap.
func allocsPerOp(f func(), k int) (allocs, bytes int64) {
	f() // warm the pools so the steady state is what gets measured
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < k; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return int64(after.Mallocs-before.Mallocs) / int64(k),
		int64(after.TotalAlloc-before.TotalAlloc) / int64(k)
}

// expE16 isolates the cost of the allocator. Both arms solve the
// identical equations over the identical shared skeleton (the
// differential tests assert identical results); the ablation varies
// only where the sets live:
//
//	heap  — core.Options.Heap, the allocator of the panic retry,
//	        AnalyzeCondensed and the step helpers: every set its own
//	        heap allocation in its own sparse or dense representation,
//	        nothing pooled;
//	arena — Analyze's default: result vectors carved from a fresh
//	        per-analysis arena, freed by the collector with the Result,
//	        temporaries from the pooled scratch sets.
func expE16(quick bool) {
	corpusSizes := []int{64, 256}
	progsEach := 20
	reps := 9
	if quick {
		corpusSizes = []int{64}
		progsEach = 8
		reps = 5
	}

	var records []allocBenchRecord
	rows := [][]string{{"workload", "heap", "arena", "speedup", "heap allocs/op", "arena allocs/op"}}
	for _, n := range corpusSizes {
		progs := make([]*ir.Program, progsEach)
		for i := range progs {
			progs[i] = workload.Random(workload.DefaultConfig(n, int64(300*n+i))).Prune()
		}

		// One op = MOD+USE for every program in the corpus, sharing
		// each program's skeleton across the two problems and dropping
		// each Result before the next program.
		coreRun := func(heap bool) func() {
			return func() {
				for _, p := range progs {
					st := core.BuildStructure(p)
					core.Analyze(p, core.Mod, core.Options{Heap: heap, Structure: st})
					core.Analyze(p, core.Use, core.Options{Heap: heap, Structure: st})
				}
			}
		}
		heapNs := medianTime(coreRun(true), reps)
		arenaNs := medianTime(coreRun(false), reps)
		heapAllocs, heapBytes := allocsPerOp(coreRun(true), 3)
		arenaAllocs, arenaBytes := allocsPerOp(coreRun(false), 3)
		rec := allocBenchRecord{
			Name: fmt.Sprintf("AnalyzeAll/N=%d", n),
			Config: "core MOD+USE per program, shared skeleton, fresh arena per analysis;" +
				" sequential; ns_per_op covers the whole corpus",
			Cores: runtime.GOMAXPROCS(0), Workers: 1,
			Programs: progsEach, ProcsEach: n,
			HeapNsPerOp: heapNs.Nanoseconds(), ArenaNsPerOp: arenaNs.Nanoseconds(),
			HeapAllocsPerOp: heapAllocs, ArenaAllocsPerOp: arenaAllocs,
			HeapBytesPerOp: heapBytes, ArenaBytesPerOp: arenaBytes,
			Speedup: float64(heapNs) / float64(arenaNs),
		}
		records = append(records, rec)
		rows = append(rows, []string{
			fmt.Sprintf("core N=%d", n), dur(heapNs), dur(arenaNs),
			f2(rec.Speedup), fmt.Sprint(heapAllocs), fmt.Sprint(arenaAllocs),
		})
	}

	printTable(rows)
	if err := writeBenchCore(records); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		return
	}
	fmt.Printf("\nGOMAXPROCS = %d, NumCPU = %d; records written to BENCH_core.json.\n", runtime.GOMAXPROCS(0), runtime.NumCPU())
	fmt.Println("Claim check: identical solutions under both allocators (differential tests);" +
		" a speedup below 1 means the arena's universe-width rows cost more than they save.")
}
