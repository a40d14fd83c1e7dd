package main

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"time"

	"sideeffect"
	"sideeffect/internal/lint"
	"sideeffect/internal/prof"
	"sideeffect/internal/report"
	"sideeffect/internal/workload"
)

func init() {
	experiments = append(experiments,
		experiment{"E15", "Diagnostics engine: per-rule yield and lint overhead relative to analysis time", expE15},
	)
}

// lintBenchRecord is one row of BENCH_lint.json. The per-rule, order
// and render times are means over the lint runs timeIt samples, its
// warm-ups left out, from the engine's own profile; the lint time is
// their median. The rules' stages only report records: rendering is
// the render stage's. The query time is the median over fresh analyses
// of 64 MOD queries, which includes building the program's name order
// where the queries pay for it.
type lintBenchRecord struct {
	Name           string         `json:"name"`
	Procs          int            `json:"procs"`
	AnalyzeNsPerOp int64          `json:"analyze_ns_per_op"`
	LintNsPerOp    int64          `json:"lint_ns_per_op"`
	SE003NsPerOp   int64          `json:"se003_ns_per_op"`
	SE005NsPerOp   int64          `json:"se005_ns_per_op"`
	OrderNsPerOp   int64          `json:"order_ns_per_op"`
	RenderNsPerOp  int64          `json:"render_ns_per_op"`
	QueriesNsPerOp int64          `json:"mod_queries_ns_per_op"`
	OverheadPct    float64        `json:"overhead_pct"`
	Findings       int            `json:"findings"`
	Counts         map[string]int `json:"counts"`
}

// lintBenchDoc is BENCH_lint.json. Workers is 1, the pool size of
// every timed analysis.
type lintBenchDoc struct {
	benchHead
	Workers int               `json:"workers"`
	Records []lintBenchRecord `json:"records"`
}

// compactCounts renders non-zero per-rule counts as "SE001:3 SE004:1".
func compactCounts(counts map[string]int) string {
	var parts []string
	for _, c := range lint.SortedCounts(counts) {
		if c.N > 0 {
			parts = append(parts, fmt.Sprintf("%s:%d", c.Rule, c.N))
		}
	}
	if len(parts) == 0 {
		return "—"
	}
	return strings.Join(parts, " ")
}

// stageNS returns the mean time per run of one lint stage ("SE003",
// "order", "render") in a lint profile.
func stageNS(p *prof.Profile, stage string) int64 {
	for _, st := range p.Snapshot() {
		if st.Name == "lint."+stage {
			return st.NS / st.Count
		}
	}
	return 0
}

// modQueries is the number of MOD queries timed per row, as many as the
// repository benchmark's minipl-large op asks of each program.
const modQueries = 64

// queryTime returns the median time of modQueries MOD queries of
// procedures drawn at random, each sample on a fresh analysis of src.
func queryTime(src string) time.Duration {
	var samples []time.Duration
	for i := 0; i < timeItWarmups+5; i++ {
		a, err := sideeffect.AnalyzeWith(src, sideeffect.Options{Workers: 1})
		if err != nil {
			panic(err)
		}
		procs := a.Procedures()
		rng := rand.New(rand.NewSource(int64(len(procs))))
		start := time.Now()
		for q := 0; q < modQueries; q++ {
			if _, err := a.MOD(procs[rng.Intn(len(procs))]); err != nil {
				panic(err)
			}
		}
		if i >= timeItWarmups {
			samples = append(samples, time.Since(start))
		}
	}
	slices.Sort(samples)
	return samples[len(samples)/2]
}

// expE15 measures the diagnostics engine against the pipeline it rides
// on: for random workloads of growing size, the wall time of a full
// analysis, the wall time of one lint pass over the finished analysis
// with its two costliest rules broken out, the overhead ratio, and
// which rules fire how often. The claim under test is the paper's
// programming-environment premise — once the summaries exist,
// answering questions about them is cheap — so lint should cost O(N+S)
// bit-vector steps plus O(1) per finding and per alias pair scanned.
// The full run adds the two programs of the repository benchmark's
// minipl-large workload, a flat one and one nested to depth 3.
func expE15(quick bool) {
	sizes := []int{64, 256, 1024}
	if quick {
		sizes = []int{64, 256}
	}

	var records []lintBenchRecord
	rows := [][]string{{"workload", "procs", "analyze", "lint", "SE003", "SE005", "order", "render", "64 MOD", "overhead", "findings", "per-finding", "per-rule"}}
	addRow := func(name string, procs int, src string) {
		a, err := sideeffect.AnalyzeWith(src, sideeffect.Options{Workers: 1})
		if err != nil {
			panic(err)
		}
		analyze := timeIt(func() { mustAnalyze(src, sideeffect.Options{Workers: 1}) })
		lp, calls := prof.New(), 0
		lintTime := timeIt(func() {
			if calls++; calls == timeItWarmups+1 {
				lp = prof.New() // the first sampled run: drop the warm-ups
			}
			if _, err := a.Lint(lint.Config{Prof: lp}); err != nil {
				panic(err)
			}
		})
		rep, err := a.Lint(lint.Config{})
		if err != nil {
			panic(err)
		}
		se003, se005 := stageNS(lp, "SE003"), stageNS(lp, "SE005")
		order, render := stageNS(lp, "order"), stageNS(lp, "render")
		queries := queryTime(src)
		overhead := 100 * float64(lintTime) / float64(analyze)
		perFinding := "—"
		if n := len(rep.Diags); n > 0 {
			perFinding = dur(lintTime / time.Duration(n))
		}
		rows = append(rows, []string{
			name, fmt.Sprint(procs), dur(analyze), dur(lintTime), dur(time.Duration(se003)), dur(time.Duration(se005)),
			dur(time.Duration(order)), dur(time.Duration(render)), dur(queries),
			f2(overhead) + "%", fmt.Sprint(len(rep.Diags)), perFinding, compactCounts(rep.Counts),
		})
		records = append(records, lintBenchRecord{
			Name: name, Procs: procs,
			AnalyzeNsPerOp: analyze.Nanoseconds(), LintNsPerOp: lintTime.Nanoseconds(),
			SE003NsPerOp: se003, SE005NsPerOp: se005,
			OrderNsPerOp: order, RenderNsPerOp: render, QueriesNsPerOp: queries.Nanoseconds(),
			OverheadPct: overhead, Findings: len(rep.Diags), Counts: rep.Counts,
		})
	}

	addRow("paper example", 4, workload.Emit(workload.PaperExample()))
	for _, n := range sizes {
		src := workload.Emit(workload.Random(workload.DefaultConfig(n, int64(300+n))))
		addRow(fmt.Sprintf("random N=%d", n), n, src)
	}
	if !quick {
		nested := workload.DefaultConfig(1024, 24)
		nested.MaxDepth, nested.NestFraction = 3, 0.5
		addRow("minipl-large flat N=4096", 4096, workload.Emit(workload.Random(workload.DefaultConfig(4096, 1))))
		addRow("minipl-large nested N=1024", 1024, workload.Emit(workload.Random(nested)))
	}

	fmt.Print(report.Table(rows))
	if err := writeBench("BENCH_lint.json", &lintBenchDoc{Workers: 1, Records: records}); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		return
	}
	fmt.Println("\nRecords written to BENCH_lint.json.")
	fmt.Println("Claim check: the engine never reruns propagation. A run costs O(N+S) bit-vector" +
		" steps plus O(1) per finding and per alias pair scanned, so lint time tracks the" +
		" finding yield: per-finding time stays flat as the program grows.")
}
