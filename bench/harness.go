package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sideeffect/internal/prof"
)

// setupRepeats is how many times a run builds its workload's inputs.
// setup_s is the median; the last instance built before the window is
// the one measured.
const setupRepeats = 9

// opTimeout is the latency beyond which an operation counts as failed.
const opTimeout = 60 * time.Second

// instance is one set-up workload, ready to be measured.
type instance interface {
	// round is the number of consecutive ops that visit every input
	// once. The timed window ends on a round boundary, so every input
	// carries the same weight whatever the machine's speed.
	round() int
	// op runs operation i. A returned error, including a failed output
	// check, counts the op as failed.
	op(r *run, i int) error
	// finish runs after the window: the untimed output checks and the
	// layer measurements taken outside the window. It returns the
	// workload's own per-layer metrics (traced runs only need them).
	finish(r *run, b *breakdown) (map[string]float64, error)
	close()
}

// setupChecker is implemented by workloads that verify their inputs
// once after set-up; the check is excluded from setup_s.
type setupChecker interface {
	checkSetup() error
}

// periodicChecker is implemented by workloads that verify their state
// every few ops; the check is excluded from the timed window.
type periodicChecker interface {
	checkEvery() int
	check(i int) error
}

// workloadDef names a workload and builds it. setup reads the seed and
// sizes from r, and installs its tracing hooks when r.tr is non-nil.
// warmup is the number of untimed rounds run before the window, for
// workloads whose first ops grow the heap to its working size.
type workloadDef struct {
	name    string
	clients int
	warmup  int
	setup   func(r *run) (instance, error)
}

// run is the state of one measured run shared by the harness and the
// workload's ops.
type run struct {
	seed   int64
	sizes  sizes
	tr     *tracer // nil when untraced
	failed atomic.Int64
	// checks and checkFails count output checks made outside ops.
	checks, checkFails atomic.Int64

	mu   sync.Mutex
	sums map[string]float64
}

// add accumulates a workload-specific counter (safe for concurrent ops).
func (r *run) add(name string, v float64) {
	r.mu.Lock()
	r.sums[name] += v
	r.mu.Unlock()
}

func (r *run) sum(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sums[name]
}

// verify records the outcome of one output check made outside an op.
func (r *run) verify(err error) {
	r.checks.Add(1)
	if err != nil {
		r.checkFails.Add(1)
		logFailure(err)
	}
}

var failureLogs atomic.Int64

// logFailure prints the first few failures to standard error.
func logFailure(err error) {
	if failureLogs.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	}
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// runtimeNames are the Go runtime counters read around the window. The
// GC rows exclude mark assists, which run inside the traced spans.
var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/mark/dedicated:cpu-seconds",
	"/cpu/classes/gc/mark/idle:cpu-seconds",
	"/cpu/classes/gc/pause:cpu-seconds",
	"/cpu/classes/scavenge/total:cpu-seconds",
}

type runtimeSample struct{ allocBytes, gcCycles, gcCPU float64 }

func readRuntime() runtimeSample {
	ss := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	val := func(i int) float64 {
		switch ss[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(ss[i].Value.Uint64())
		case metrics.KindFloat64:
			return ss[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{
		allocBytes: val(0),
		gcCycles:   val(1),
		gcCPU:      val(2) + val(3) + val(4) + val(5),
	}
}

// window is the timed interval of a run. Pauses (untimed checks) are
// excluded from both its wall time and its CPU time.
type window struct {
	start           time.Time
	cpu0            time.Duration
	rt0             runtimeSample
	mu              sync.Mutex
	paused, pausedC time.Duration
}

func startWindow() *window {
	return &window{start: time.Now(), cpu0: cpuTime(), rt0: readRuntime()}
}

func (w *window) elapsed() time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	return time.Since(w.start) - w.paused
}

// read returns the wall and CPU time the window has run so far.
func (w *window) read() (wall, cpu time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return time.Since(w.start) - w.paused, cpuTime() - w.cpu0 - w.pausedC
}

// pause stops the clock until the returned function is called. Only
// single-client workloads pause: with concurrent clients the other
// client's work would be excluded too.
func (w *window) pause() (resume func()) {
	t0, c0 := time.Now(), cpuTime()
	return func() {
		w.mu.Lock()
		w.paused += time.Since(t0)
		w.pausedC += cpuTime() - c0
		w.mu.Unlock()
	}
}

// segmentsPerWindow is the number of segments a window is cut into.
const segmentsPerWindow = 10

// segment is a stretch of a window made of whole rounds and lasting at
// least a tenth of it. Throughput and CPU per op are taken per segment
// and a run reports their medians, so that a burst of load from outside
// the process moves one segment, not the result. A segment still holds
// several collections on every workload, so their cost stays in.
type segment struct {
	ops       int64
	wall, cpu time.Duration
}

// measured is what the harness observed in one window.
type measured struct {
	ops       int
	cpu       time.Duration
	segments  []segment
	latencies []time.Duration
	rt        runtimeSample // deltas over the window
}

// opsPerSecond and cpuMSPerOp are the medians over the segments.
func (m measured) opsPerSecond() float64 {
	return m.segmentMedian(func(s segment) float64 { return float64(s.ops) / s.wall.Seconds() })
}

func (m measured) cpuMSPerOp() float64 {
	return m.segmentMedian(func(s segment) float64 { return ms(s.cpu) / float64(s.ops) })
}

func (m measured) segmentMedian(f func(segment) float64) float64 {
	var xs []float64
	for _, s := range m.segments {
		if s.ops > 0 {
			xs = append(xs, f(s))
		}
	}
	_, med, _ := quartiles(xs)
	return med
}

// measure runs inst's ops from the given number of closed-loop
// clients, starting at op first, until at least seconds have passed
// and a round is complete.
func measure(inst instance, clients int, r *run, seconds float64, first int) measured {
	var (
		next, ops atomic.Int64
		stop      atomic.Bool
		wg        sync.WaitGroup
		lats      = make([][]time.Duration, clients)
		segMu     sync.Mutex
		segs      []segment
		last      segment // totals where the last segment ended
	)
	next.Store(int64(first))
	limit := time.Duration(seconds * float64(time.Second))
	round := inst.round()
	pc, _ := inst.(periodicChecker)
	w := startWindow()
	endSegment := func() {
		wall, cpu := w.read()
		done := ops.Load()
		segs = append(segs, segment{ops: done - last.ops, wall: wall - last.wall, cpu: cpu - last.cpu})
		last = segment{ops: done, wall: wall, cpu: cpu}
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i%round == 0 {
					el := w.elapsed()
					if el >= limit {
						stop.Store(true)
					}
					segMu.Lock()
					if !stop.Load() && el-last.wall >= limit/segmentsPerWindow {
						endSegment()
					}
					segMu.Unlock()
				}
				if stop.Load() {
					return
				}
				t0 := time.Now()
				err := runOp(inst, r, i)
				lat := time.Since(t0)
				if err == nil && lat > opTimeout {
					err = fmt.Errorf("op %d took %v", i, lat)
				}
				if err != nil {
					r.failed.Add(1)
					logFailure(err)
				}
				lats[c] = append(lats[c], lat)
				ops.Add(1)
				if pc != nil && (i+1)%pc.checkEvery() == 0 {
					resume := w.pause()
					r.verify(pc.check(i))
					resume()
				}
			}
		}(c)
	}
	wg.Wait()
	rt := readRuntime()
	endSegment()
	m := measured{ops: int(ops.Load()), segments: segs, cpu: last.cpu}
	m.rt = runtimeSample{
		allocBytes: rt.allocBytes - w.rt0.allocBytes,
		gcCycles:   rt.gcCycles - w.rt0.gcCycles,
		gcCPU:      rt.gcCPU - w.rt0.gcCPU,
	}
	for _, l := range lats {
		m.latencies = append(m.latencies, l...)
	}
	sort.Slice(m.latencies, func(i, j int) bool { return m.latencies[i] < m.latencies[j] })
	return m
}

// runOp runs one op, turning a panic into a failure.
func runOp(inst instance, r *run, i int) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("op %d panicked: %v", i, rec)
		}
	}()
	return inst.op(r, i)
}

// percentile is the nearest-rank percentile of sorted durations, in ms.
func percentile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	k = max(0, min(k, len(sorted)-1))
	return ms(sorted[k])
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quartiles matches Python's statistics.quantiles(xs, n=4), the
// default "exclusive" method. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	if ld < 2 {
		if ld == 1 {
			return d[0], d[0], d[0]
		}
		return 0, 0, 0
	}
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		out[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

// span is one timed call into a layer. Stages carries the program's
// own stage table for the call (Analysis.Stages), by stage name.
type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent,omitempty"`
	Op     int              `json:"op"`
	Name   string           `json:"name"`
	Layer  string           `json:"layer"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Stages map[string]int64 `json:"stages_ns,omitempty"`
}

// tracer records spans in memory; they are written when the run ends.
// A nil tracer records nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// reset drops the spans recorded so far.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = nil
}

func (t *tracer) begin(op, parent int, name, layer string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Layer: layer, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int, stages map[string]int64) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Stages = stages
}

// layers lists the repository's layers in report order. "runtime" is
// the collector's own CPU; "bench" is the harness around the calls.
var layers = []string{"gofront", "lang", "core", "alias", "section", "lint", "report", "server", "session", "runtime", "bench"}

// stageLayer maps a program stage name to the layer it belongs to.
func stageLayer(stage string) string {
	switch {
	case stage == "aliases" || strings.HasPrefix(stage, "factor."):
		return "alias"
	case strings.HasPrefix(stage, "sections."):
		return "section"
	case strings.HasPrefix(stage, "lint."):
		return "lint"
	default: // "structure", "mod.*", "use.*"
		return "core"
	}
}

// breakdown aggregates the spans of a traced window. Stage times are
// CPU-like: stages that ran concurrently each count in full, and a
// span's self time is what its children and stages leave of it.
type breakdown struct {
	ops    int
	layer  map[string]float64 // self ns by layer
	stage  map[string]float64 // ns by stage name
	spanNS map[string]float64 // total ns by span name
	spanN  map[string]int     // count by span name
}

func newBreakdown(spans []span, ops int) *breakdown {
	b := &breakdown{ops: ops, layer: map[string]float64{}, stage: map[string]float64{},
		spanNS: map[string]float64{}, spanN: map[string]int{}}
	child := map[int]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for _, s := range spans {
		d := s.End - s.Start
		var st int64
		for name, ns := range s.Stages {
			st += ns
			b.stage[name] += float64(ns)
			b.layer[stageLayer(name)] += float64(ns)
		}
		b.layer[s.Layer] += float64(max(0, d-child[s.ID]-st))
		b.spanNS[s.Name] += float64(d)
		b.spanN[s.Name]++
	}
	return b
}

// perOp converts a total in ns to ms per op.
func (b *breakdown) perOp(ns float64) float64 { return ns / 1e6 / float64(b.ops) }

// stages sums the stage times whose names match any prefix.
func (b *breakdown) stages(prefixes ...string) float64 {
	var t float64
	for name, ns := range b.stage {
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				t += ns
				break
			}
		}
	}
	return t
}

// move reattributes ns of self time from one layer to another, for
// layer shares estimated by a separate measurement outside the window.
func (b *breakdown) move(from, to string, ns float64) {
	ns = min(ns, b.layer[from])
	b.layer[from] -= ns
	b.layer[to] += ns
}

// stageMetrics fills the metrics read from the program's stage tables.
func (b *breakdown) stageMetrics(m map[string]float64) {
	m["core.structure_ms"] = b.perOp(b.stages("structure"))
	m["core.facts_ms"] = b.perOp(b.stages("mod.facts", "use.facts"))
	m["core.rmod_ms"] = b.perOp(b.stages("mod.rmod", "use.rmod"))
	m["core.imodplus_ms"] = b.perOp(b.stages("mod.imod+", "use.imod+"))
	m["core.gmod_ms"] = b.perOp(b.stages("mod.gmod", "use.gmod"))
	m["core.dmod_ms"] = b.perOp(b.stages("mod.dmod", "use.dmod"))
	m["alias.compute_ms"] = b.perOp(b.stages("aliases"))
	m["alias.factor_ms"] = b.perOp(b.stages("factor."))
	m["section.ms"] = b.perOp(b.stages("sections."))
	m["lint.se003_ms"] = b.perOp(b.stages("lint.SE003"))
	m["lint.se005_ms"] = b.perOp(b.stages("lint.SE005"))
}

// stageNS reads a program stage table (Analysis.Stages) as name → ns.
func stageNS(p *prof.Profile) map[string]int64 {
	out := map[string]int64{}
	for _, st := range p.Snapshot() {
		out[st.Name] += st.NS
	}
	return out
}

// stageDelta is the growth of stage table cur since the snapshot prev.
func stageDelta(cur, prev map[string]int64) map[string]int64 {
	out := map[string]int64{}
	for name, ns := range cur {
		if d := ns - prev[name]; d > 0 {
			out[name] = d
		}
	}
	return out
}

// mix hashes (seed, i) to 64 well-spread bits (splitmix64), so that op
// i's input depends on the seed and i alone, whatever order the
// clients take ops in.
func mix(seed int64, i int) uint64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i)*0xD1B54A32D192ED03
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}
