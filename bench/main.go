// Command bench is the repository benchmark. It runs four user
// workloads against the analysis system (go-std, minipl-large,
// serve-mix, session-edit), checks every output, and prints the
// end-to-end metrics of each; a traced run adds the per-layer split.
//
// From the repository root:
//
//	bash bench/run.sh -seed 1                  # every workload, one child process each
//	bash bench/run.sh -seed 1 -trace trace.json # also a traced run; spans go to trace.json
//	bash bench/run.sh -workload serve-mix -seed 2 -seconds 20 -trace 0
//	bash bench/run.sh -compare 'a/*.json' 'b/*.json'
//
// A single-workload run prints one "<workload> <metric> <value> <unit>"
// line per metric and, as its last line, a JSON object with the keys
// correct, attempted, failed and metrics. With -trace 0 the metrics are
// the end-to-end ones, with -trace 1 (or a file name) the per-layer
// ones. See README.md for the workloads and the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// sizes holds every workload size. The benchmark runs fullSizes; the
// package test runs tinySizes so that every workload finishes quickly.
type sizes struct {
	// stdPackages is the number of GOROOT packages drawn for go-std,
	// one from each of as many strata of the candidate band; stdBand is
	// that band as quantiles of the candidates sorted by the source
	// size of their import closure (the frontend's main cost).
	stdPackages int
	stdBand     [2]float64
	// flatProcs and nestedProcs size the two minipl-large programs;
	// oracleProcs sizes the flat program checked against the baseline
	// oracles in set-up (the oracle is quadratic).
	flatProcs, nestedProcs, oracleProcs int
	// queries is the number of MOD point queries per minipl-large op.
	queries int
	// servePrograms programs of serveMinProcs..serveMaxProcs procedures
	// make serve-mix's warm working set; cold requests draw from
	// coldPool programs of coldProcs procedures, renamed per request.
	servePrograms, serveMinProcs, serveMaxProcs int
	coldProcs, coldPool                         int
	// sessionProcs sizes the session-edit program; checkEvery is the
	// number of edits between checks against a fresh analysis.
	sessionProcs, checkEvery int
}

var fullSizes = sizes{
	stdPackages: 16, stdBand: [2]float64{0.40, 0.85},
	flatProcs: 4096, nestedProcs: 1024, oracleProcs: 2048, queries: 64,
	servePrograms: 16, serveMinProcs: 16, serveMaxProcs: 48, coldProcs: 32, coldPool: 32,
	sessionProcs: 512, checkEvery: 25,
}

var tinySizes = sizes{
	stdPackages: 2, stdBand: [2]float64{0, 0.08},
	flatProcs: 96, nestedProcs: 64, oracleProcs: 64, queries: 8,
	servePrograms: 4, serveMinProcs: 8, serveMaxProcs: 16, coldProcs: 8, coldPool: 4,
	sessionProcs: 32, checkEvery: 5,
}

// Generated MiniPL programs have fixed shapes: their generator seeds
// are these constants, not the run seed. The generator's alias
// density, which drives the cost of nearly every layer, varies
// severalfold between generator seeds (the nested minipl-large
// program's op took 138-1022 ms over generator seeds 1-24), so shapes
// drawn by the run seed would make runs with different seeds measure
// different amounts of work. The run seed drives everything else: the
// GOROOT packages, the queries, the request mix, the edits, and the
// program checked against the oracles.
const (
	flatShape    = 1
	nestedShape  = 24 // the median op cost among generator seeds 1-24
	serveShape   = 1000
	sessionShape = 1
)

// defaultSeconds is the length of the timed window when -seconds is
// not given.
const defaultSeconds = 20

var workloads = []workloadDef{goStdDef, miniPLDef, serveMixDef, sessionEditDef}

type metricDef struct{ name, unit, better string }

// endToEnd are the metrics a user of the system sees, reported by
// every untraced run. error_rate is reported beside them; it is 0 on a
// correct run, so it travels as the result line's failed/attempted.
var endToEnd = []metricDef{
	{"ops_per_s", "ops/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p99_ms", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the traced run's metrics. Every run reports all of
// them; a layer the workload does not reach reads 0. Times are per op.
var perLayer = []metricDef{
	{"gofront.self_ms", "ms", "lower"},
	{"gofront.load_ms", "ms", "lower"},
	{"gofront.lines_per_s", "lines/s", "higher"},
	{"gofront.degraded_ratio", "ratio", "lower"},
	{"gofront.import_ref_ms", "ms", "lower"},
	{"lang.self_ms", "ms", "lower"},
	{"lang.parse_ms", "ms", "lower"},
	{"lang.mb_per_s", "MB/s", "higher"},
	{"core.self_ms", "ms", "lower"},
	{"core.structure_ms", "ms", "lower"},
	{"core.facts_ms", "ms", "lower"},
	{"core.rmod_ms", "ms", "lower"},
	{"core.imodplus_ms", "ms", "lower"},
	{"core.gmod_ms", "ms", "lower"},
	{"core.dmod_ms", "ms", "lower"},
	{"core.bit_vector_steps", "count", "lower"},
	{"core.components", "count", "lower"},
	{"core.shared_row_hits", "count", "higher"},
	{"alias.self_ms", "ms", "lower"},
	{"alias.compute_ms", "ms", "lower"},
	{"alias.factor_ms", "ms", "lower"},
	{"section.self_ms", "ms", "lower"},
	{"section.ms", "ms", "lower"},
	{"lint.self_ms", "ms", "lower"},
	{"lint.ms", "ms", "lower"},
	{"lint.findings", "count", "lower"},
	{"lint.se003_ms", "ms", "lower"},
	{"lint.se005_ms", "ms", "lower"},
	{"report.self_ms", "ms", "lower"},
	{"report.render_ms", "ms", "lower"},
	{"report.bytes_per_op", "B", "lower"},
	{"server.self_ms", "ms", "lower"},
	{"server.handler_ms", "ms", "lower"},
	{"server.net_ms", "ms", "lower"},
	{"server.encode_ms", "ms", "lower"},
	{"server.cache_hit_ratio", "ratio", "higher"},
	{"server.analysis_ms_per_miss", "ms", "lower"},
	{"server.resp_kb", "KB", "lower"},
	{"server.shed_rate", "ratio", "lower"},
	{"session.self_ms", "ms", "lower"},
	{"session.incremental_ratio", "ratio", "higher"},
	{"session.edit_incremental_ms", "ms", "lower"},
	{"session.edit_full_ms", "ms", "lower"},
	{"session.read_ms", "ms", "lower"},
	{"runtime.self_ms", "ms", "lower"},
	{"runtime.alloc_mb_per_op", "MB", "lower"},
	{"runtime.gc_cycles_per_op", "count", "lower"},
	{"bench.self_ms", "ms", "lower"},
	{"trace.coverage", "ratio", "higher"},
	{"trace.cpu_ms_per_op", "ms", "lower"},
	{"trace.ops_per_s", "ops/s", "higher"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a single-workload run prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// workloadResult is one workload's entry in the -out results file.
type workloadResult struct {
	Name      string  `json:"name"`
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	ErrorRate float64 `json:"error_rate"`
	// Metrics are the untraced end-to-end metrics, Layers the traced
	// per-layer ones.
	Metrics map[string]metricValue `json:"metrics,omitempty"`
	Layers  map[string]metricValue `json:"layers,omitempty"`
	// TraceOverhead is untraced over traced ops_per_s, minus one.
	TraceOverhead *float64 `json:"trace_overhead,omitempty"`
}

// resultsFile is what -out writes and -compare reads.
type resultsFile struct {
	GoVersion  string           `json:"go_version"`
	NumCPU     int              `json:"num_cpu"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Seed       int64            `json:"seed"`
	Seconds    float64          `json:"seconds"`
	Workloads  []workloadResult `json:"workloads"`
}

func main() {
	seed := flag.Int64("seed", 1, "seed for every input the workloads draw")
	seconds := flag.Float64("seconds", defaultSeconds, "length of each timed window")
	name := flag.String("workload", "", "run only this workload, in this process (default: every workload, each in a child process)")
	trace := flag.String("trace", "0", "0: untraced; 1: traced; any other value: traced, spans written to this file")
	out := flag.String("out", "", "write the results as JSON to this file")
	compare := flag.Bool("compare", false, "compare two sets of results files: -compare 'a*.json' 'b*.json'")
	flag.Parse()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare <runs A> <runs B>")
			os.Exit(2)
		}
		var ok bool
		ok, err = compareRuns(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err == nil && !ok {
			os.Exit(1)
		}
	case *name != "":
		err = runOne(*name, *seed, *seconds, *trace, *out)
	default:
		err = runAll(*seed, *seconds, *trace, *out)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

// isTraced reports whether a -trace value asks for a traced run.
func isTraced(trace string) bool { return trace != "0" && trace != "" }

func lookup(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// outcome is one measured run of one workload.
type outcome struct {
	attempted, failed int64
	e2e               map[string]float64
	layer             map[string]float64 // nil when untraced
	spans             []span
}

// runWorkload sets up def, verifies the set-up, measures one window and
// finishes with the untimed checks.
func runWorkload(def workloadDef, s sizes, seed int64, seconds float64, traced bool) (*outcome, error) {
	r := &run{seed: seed, sizes: s, sums: map[string]float64{}}
	if traced {
		r.tr = newTracer()
	}
	// Each set-up and the window start from a collected heap, so that a
	// collection owed by earlier work does not land in the timing. Half
	// of the set-ups run before the window and the rest after it: the
	// machine's speed shifts within seconds, and set-ups timed at one
	// moment would all share its speed.
	var setups []float64
	setup := func() (instance, error) {
		runtime.GC()
		t0 := time.Now()
		in, err := def.setup(r)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", def.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		return in, nil
	}
	var inst instance
	for k := 0; k < (setupRepeats+1)/2; k++ {
		if inst != nil {
			inst.close()
		}
		in, err := setup()
		if err != nil {
			return nil, err
		}
		inst = in
	}
	defer inst.close()
	if sc, ok := inst.(setupChecker); ok {
		r.verify(sc.checkSetup())
	}
	warm := def.warmup * inst.round()
	for i := 0; i < warm; i++ {
		if err := runOp(inst, r, i); err != nil {
			r.failed.Add(1)
			logFailure(err)
		}
	}
	r.tr.reset()
	r.mu.Lock()
	r.sums = map[string]float64{}
	r.mu.Unlock()
	runtime.GC()
	m := measure(inst, def.clients, r, seconds, warm)
	peak := peakRSSMB()
	if m.ops == 0 {
		return nil, fmt.Errorf("%s: no op completed", def.name)
	}
	var b *breakdown
	if traced {
		b = newBreakdown(r.tr.spans, m.ops)
	}
	own, err := inst.finish(r, b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", def.name, err)
	}
	for len(setups) < setupRepeats {
		in, err := setup()
		if err != nil {
			return nil, err
		}
		in.close()
	}
	ops := float64(m.ops)
	_, setupMedian, _ := quartiles(setups)
	o := &outcome{
		attempted: int64(warm+m.ops) + r.checks.Load(),
		failed:    r.failed.Load() + r.checkFails.Load(),
		e2e: map[string]float64{
			"ops_per_s":      m.opsPerSecond(),
			"latency_p50_ms": percentile(m.latencies, 0.50),
			"latency_p99_ms": percentile(m.latencies, 0.99),
			"cpu_ms_per_op":  m.cpuMSPerOp(),
			"setup_s":        setupMedian,
			"peak_rss_mb":    peak,
		},
	}
	if !traced {
		return o, nil
	}
	o.spans = r.tr.spans
	o.layer = map[string]float64{}
	for _, d := range perLayer {
		o.layer[d.name] = 0
	}
	for k, v := range own {
		o.layer[k] = v
	}
	b.layer["runtime"] += m.rt.gcCPU * 1e9
	var covered float64
	for _, l := range layers {
		v := b.perOp(b.layer[l])
		o.layer[l+".self_ms"] = v
		covered += v
	}
	o.layer["runtime.alloc_mb_per_op"] = m.rt.allocBytes / (1 << 20) / ops
	o.layer["runtime.gc_cycles_per_op"] = m.rt.gcCycles / ops
	// Self times are totals over the window, so their shares are of the
	// window's mean CPU per op, not of the median over segments.
	o.layer["trace.cpu_ms_per_op"] = ms(m.cpu) / ops
	o.layer["trace.ops_per_s"] = o.e2e["ops_per_s"]
	o.layer["trace.coverage"] = covered / o.layer["trace.cpu_ms_per_op"]
	return o, nil
}

// runOne runs one workload in this process and prints its result line.
func runOne(name string, seed int64, seconds float64, trace, out string) error {
	def, err := lookup(name)
	if err != nil {
		return err
	}
	traced := isTraced(trace)
	o, err := runWorkload(def, fullSizes, seed, seconds, traced)
	if err != nil {
		return err
	}
	defs, vals := endToEnd, o.e2e
	if traced {
		defs, vals = perLayer, o.layer
	}
	res := resultLine{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
		fmt.Printf("%s %s %s %s\n", name, d.name, strconv.FormatFloat(vals[d.name], 'g', -1, 64), d.unit)
	}
	fmt.Printf("%s error_rate %s failed/attempted\n", name, strconv.FormatFloat(float64(o.failed)/float64(o.attempted), 'g', -1, 64))
	if traced {
		printShares(os.Stdout, name, o.layer)
		if trace != "1" {
			if err := writeJSON(trace, map[string]any{"workload": name, "seed": seed, "spans": o.spans}); err != nil {
				return err
			}
		}
	}
	if out != "" {
		wr := workloadResult{Name: name, Correct: res.Correct, Attempted: o.attempted, Failed: o.failed,
			ErrorRate: float64(o.failed) / float64(o.attempted)}
		if traced {
			wr.Layers = res.Metrics
		} else {
			wr.Metrics = res.Metrics
		}
		if err := writeJSON(out, newResultsFile(seed, seconds, []workloadResult{wr})); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printShares prints each layer's self time per op and its share of
// the traced run's CPU time per op.
func printShares(w io.Writer, name string, layer map[string]float64) {
	cpu := layer["trace.cpu_ms_per_op"]
	fmt.Fprintf(w, "%s layer self time per op (share of %.3f ms CPU per op):\n", name, cpu)
	for _, l := range layers {
		v := layer[l+".self_ms"]
		fmt.Fprintf(w, "  %-8s %10.3f ms  %5.1f%%\n", l, v, 100*v/cpu)
	}
	fmt.Fprintf(w, "  %-8s %10s     %5.1f%%\n", "total", "", 100*layer["trace.coverage"])
}

func newResultsFile(seed int64, seconds float64, ws []workloadResult) resultsFile {
	return resultsFile{
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: seed, Seconds: seconds, Workloads: ws,
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runAll runs every workload in its own child process, so that peak
// RSS and collector state belong to one workload, and then (when
// tracing) a traced child for each.
func runAll(seed int64, seconds float64, trace, out string) error {
	traced := isTraced(trace)
	var results []workloadResult
	parts := map[string]json.RawMessage{}
	summary := resultLine{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range workloads {
		res, err := runChild(w.name, seed, seconds, "0")
		if err != nil {
			return err
		}
		wr := workloadResult{Name: w.name, Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed,
			ErrorRate: float64(res.Failed) / float64(res.Attempted), Metrics: res.Metrics}
		if traced {
			spans := "1"
			if trace != "1" {
				spans = trace + "." + w.name + ".part"
			}
			tres, err := runChild(w.name, seed, seconds, spans)
			if err != nil {
				return err
			}
			wr.Layers = tres.Metrics
			wr.Attempted += tres.Attempted
			wr.Failed += tres.Failed
			wr.Correct = wr.Failed == 0
			wr.ErrorRate = float64(wr.Failed) / float64(wr.Attempted)
			over := res.Metrics["ops_per_s"].Value/tres.Metrics["trace.ops_per_s"].Value - 1
			wr.TraceOverhead = &over
			if spans != "1" {
				data, err := os.ReadFile(spans)
				if err != nil {
					return err
				}
				parts[w.name] = data
				if err := os.Remove(spans); err != nil {
					return err
				}
			}
		}
		results = append(results, wr)
		summary.Attempted += wr.Attempted
		summary.Failed += wr.Failed
		for k, v := range wr.Metrics {
			summary.Metrics[w.name+"."+k] = v
		}
	}
	summary.Correct = summary.Failed == 0

	fmt.Printf("\n%-13s", "workload")
	for _, d := range endToEnd {
		fmt.Printf(" %15s", d.name)
	}
	fmt.Printf(" %10s %14s\n", "error_rate", "trace_overhead")
	for _, wr := range results {
		fmt.Printf("%-13s", wr.Name)
		for _, d := range endToEnd {
			fmt.Printf(" %15.4g", wr.Metrics[d.name].Value)
		}
		over := "-"
		if wr.TraceOverhead != nil {
			over = fmt.Sprintf("%+.1f%%", 100**wr.TraceOverhead)
		}
		fmt.Printf(" %10.4g %14s\n", wr.ErrorRate, over)
	}
	fmt.Printf("go %s, num_cpu %d, GOMAXPROCS %d, seed %d, %gs windows\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), seed, seconds)

	if traced && trace != "1" {
		if err := writeJSON(trace, map[string]any{"seed": seed, "workloads": parts}); err != nil {
			return err
		}
	}
	if out != "" {
		if err := writeJSON(out, newResultsFile(seed, seconds, results)); err != nil {
			return err
		}
	}
	line, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runChild re-runs this binary on one workload, relays its output
// lines and returns its parsed result line.
func runChild(name string, seed int64, seconds float64, trace string) (resultLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return resultLine{}, err
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return resultLine{}, fmt.Errorf("%s: %w", name, err)
	}
	lines := strings.Split(strings.TrimRight(string(stdout), "\n"), "\n")
	for _, l := range lines[:len(lines)-1] {
		fmt.Println(l)
	}
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return resultLine{}, fmt.Errorf("%s: bad result line: %w", name, err)
	}
	return res, nil
}

// benchmarkFile is the part of BENCHMARK.json the compare mode and the
// package test read.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// readBenchmarkFile finds BENCHMARK.json in the working directory or
// its parent (the package test runs from bench/).
func readBenchmarkFile() (*benchmarkFile, error) {
	var data []byte
	var err error
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		if data, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// loadRuns reads every results file matching pattern.
func loadRuns(pattern string) ([]resultsFile, error) {
	files, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no results files match %q", pattern)
	}
	var runs []resultsFile
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rf resultsFile
		if err := json.Unmarshal(data, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		runs = append(runs, rf)
	}
	return runs, nil
}

// compareRuns prints, for every end-to-end metric and workload, the
// medians and quartiles of both sets of runs and whether B's median
// stays within the metric's bound of A's. It reports false if any pair
// fails.
func compareRuns(w io.Writer, patA, patB string) (bool, error) {
	bf, err := readBenchmarkFile()
	if err != nil {
		return false, err
	}
	a, err := loadRuns(patA)
	if err != nil {
		return false, err
	}
	b, err := loadRuns(patB)
	if err != nil {
		return false, err
	}
	values := func(runs []resultsFile, wl, metric string) []float64 {
		var xs []float64
		for _, r := range runs {
			for _, wr := range r.Workloads {
				if v, ok := wr.Metrics[metric]; ok && wr.Name == wl {
					xs = append(xs, v.Value)
				}
			}
		}
		return xs
	}
	fmt.Fprintf(w, "A: %s (%d runs)   B: %s (%d runs)\n", patA, len(a), patB, len(b))
	fmt.Fprintf(w, "%-13s %-15s %31s %31s %8s %6s %7s %s\n", "workload", "metric",
		"A q1 / median / q3", "B q1 / median / q3", "change", "bound", "spread", "verdict")
	allOK := true
	for _, wl := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			xa, xb := values(a, wl.Name, m.Name), values(b, wl.Name, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Fprintf(w, "%-13s %-15s missing\n", wl.Name, m.Name)
				allOK = false
				continue
			}
			a1, a2, a3 := quartiles(xa)
			b1, b2, b3 := quartiles(xb)
			change := b2/a2 - 1
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			spread := math.Max((a3-a1)/a2, (b3-b1)/b2)
			verdict := "pass"
			if worse > m.Bound {
				verdict = "FAIL"
				allOK = false
			}
			if m.Name != "setup_s" && spread > m.Bound {
				verdict += " (spread wider than bound)"
			}
			fmt.Fprintf(w, "%-13s %-15s %9.4g /%9.4g /%9.4g %9.4g /%9.4g /%9.4g %+7.1f%% %5.0f%% %6.1f%% %s\n",
				wl.Name, m.Name, a1, a2, a3, b1, b2, b3, 100*change, 100*m.Bound, 100*spread, verdict)
		}
	}
	return allOK, nil
}
