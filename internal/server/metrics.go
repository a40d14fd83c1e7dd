package server

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"sideeffect"
	"sideeffect/internal/cache"
)

// latencyBounds are the histogram bucket upper bounds in seconds,
// log-spaced from 100µs to 10s — analyses of toy programs land in the
// first buckets, heavy batch work in the last.
var latencyBounds = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// histogram is a fixed-bucket latency histogram. Guarded by the owning
// metrics mutex.
type histogram struct {
	counts []int64 // one per bound, plus +Inf at the end
	sum    float64
	count  int64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]int64, len(latencyBounds)+1)}
}

func (h *histogram) observe(seconds float64) {
	i := sort.SearchFloat64s(latencyBounds, seconds)
	h.counts[i]++
	h.sum += seconds
	h.count++
}

// metrics is the server's observability state: request counts by
// endpoint and status, session edit modes, and an analysis latency
// histogram. Cache counters live in the cache itself and are merged in
// at render time. All methods are safe for concurrent use.
type metrics struct {
	mu       sync.Mutex
	requests map[string]int64 // key: endpoint + "\x00" + status
	edits    map[string]int64 // key: "incremental" or "full"
	lintRuns int64            // lint engine runs (cached entries' first /lint, session lint)
	lintHits map[string]int64 // findings per rule ID, summed over those runs
	latency  *histogram
	// stageSecs accumulates profiled pipeline wall time per stage
	// name, across every cache-miss analysis.
	stageSecs map[string]float64
	// condensedRows and sharedRowHits accumulate the condensed GMOD
	// solver's storage counters across every analysis this process ran:
	// dense escape rows materialized vs components served as a pure
	// alias of a successor's row.
	condensedRows int64
	sharedRowHits int64
	// failures counts structured error responses by error code,
	// panics counts handler panics isolated by the route plumbing, and
	// degraded counts analyses served by the sequential fallback.
	failures map[string]int64
	panics   int64
	degraded int64
	// warmHits counts requests answered from a snapshot-backed cache
	// entry (persisted checkpoint or watch-mode indexer install) —
	// answers no analysis stage ran for in this process. warmEntries is
	// the number of entries the last checkpoint import restored, and
	// the checkpoint* counters describe completed checkpoint writes.
	warmHits          int64
	warmEntries       int64
	checkpoints       int64
	checkpointBytes   int64
	checkpointSeconds float64
}

func newMetrics() *metrics {
	return &metrics{
		requests:  make(map[string]int64),
		edits:     make(map[string]int64),
		lintHits:  make(map[string]int64),
		latency:   newHistogram(),
		stageSecs: make(map[string]float64),
		failures:  make(map[string]int64),
	}
}

func (m *metrics) failure(code string) {
	m.mu.Lock()
	m.failures[code]++
	m.mu.Unlock()
}

func (m *metrics) panicked() {
	m.mu.Lock()
	m.panics++
	m.mu.Unlock()
}

// warmHit records one request served from a snapshot-backed entry.
func (m *metrics) warmHit() {
	m.mu.Lock()
	m.warmHits++
	m.mu.Unlock()
}

// warmLoaded records how many entries a checkpoint import restored.
func (m *metrics) warmLoaded(n int64) {
	m.mu.Lock()
	m.warmEntries += n
	m.mu.Unlock()
}

// checkpointed records one completed checkpoint write.
func (m *metrics) checkpointed(bytes int64, seconds float64) {
	m.mu.Lock()
	m.checkpoints++
	m.checkpointBytes += bytes
	m.checkpointSeconds += seconds
	m.mu.Unlock()
}

// observeMiss records one cache-miss analysis: its wall time, the
// stage times of a profiled run, the condensed solver's storage
// counters, and whether the retry computed it (Analysis.Degraded).
func (m *metrics) observeMiss(seconds float64, a *sideeffect.Analysis) {
	stages, work := a.Stages.Snapshot(), a.GMODWork()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.latency.observe(seconds)
	for _, st := range stages {
		m.stageSecs[st.Name] += float64(st.NS) / 1e9
	}
	m.condensedRows += int64(work.CondensedRows)
	m.sharedRowHits += int64(work.SharedRowHits)
	if a.Degraded {
		m.degraded++
	}
}

func (m *metrics) request(endpoint string, status int) {
	m.mu.Lock()
	m.requests[fmt.Sprintf("%s\x00%d", endpoint, status)]++
	m.mu.Unlock()
}

func (m *metrics) edit(mode string) {
	m.mu.Lock()
	m.edits[mode]++
	m.mu.Unlock()
}

// lintRun records one diagnostics engine run and accumulates its
// per-rule finding counts. Zero counts still register the rule so the
// exposition lists every selected rule from the first run onward.
func (m *metrics) lintRun(counts map[string]int) {
	m.mu.Lock()
	m.lintRuns++
	for rule, n := range counts {
		m.lintHits[rule] += int64(n)
	}
	m.mu.Unlock()
}

// robustnessStats carries the serving-layer resilience gauges and
// counters into render: admission-control state, fault-injection
// totals, and the degradation ladder's usage.
type robustnessStats struct {
	// inFlight is the current admission gauge (-1 = unlimited/untracked).
	inFlight int
	queued   int64
	shed     int64
	// faults is the injector's per-"site/kind" count map (nil when
	// fault injection is disarmed).
	faults map[string]uint64
}

// render produces the Prometheus text exposition of every counter,
// deterministically ordered. cs is the cache's counter snapshot and
// sessionsOpen the current session gauge.
func (m *metrics) render(cs cache.Stats, sessionsOpen int, rs robustnessStats) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var b strings.Builder

	b.WriteString("# HELP modand_requests_total HTTP requests by endpoint and status code.\n")
	b.WriteString("# TYPE modand_requests_total counter\n")
	keys := make([]string, 0, len(m.requests))
	for k := range m.requests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		parts := strings.SplitN(k, "\x00", 2)
		fmt.Fprintf(&b, "modand_requests_total{endpoint=%q,code=%q} %d\n", parts[0], parts[1], m.requests[k])
	}

	b.WriteString("# HELP modand_cache_hits_total Analyses served from the content-addressed cache.\n")
	b.WriteString("# TYPE modand_cache_hits_total counter\n")
	fmt.Fprintf(&b, "modand_cache_hits_total %d\n", cs.Hits)
	b.WriteString("# TYPE modand_cache_misses_total counter\n")
	fmt.Fprintf(&b, "modand_cache_misses_total %d\n", cs.Misses)
	b.WriteString("# HELP modand_cache_dedups_total Requests collapsed into another in-flight analysis.\n")
	b.WriteString("# TYPE modand_cache_dedups_total counter\n")
	fmt.Fprintf(&b, "modand_cache_dedups_total %d\n", cs.Dedups)
	b.WriteString("# TYPE modand_cache_evictions_total counter\n")
	fmt.Fprintf(&b, "modand_cache_evictions_total %d\n", cs.Evictions)
	b.WriteString("# TYPE modand_cache_entries gauge\n")
	fmt.Fprintf(&b, "modand_cache_entries %d\n", cs.Entries)
	b.WriteString("# HELP modand_cache_corruptions_total Cache entries evicted by the integrity validator.\n")
	b.WriteString("# TYPE modand_cache_corruptions_total counter\n")
	fmt.Fprintf(&b, "modand_cache_corruptions_total %d\n", cs.Corruptions)

	b.WriteString("# TYPE modand_sessions_open gauge\n")
	fmt.Fprintf(&b, "modand_sessions_open %d\n", sessionsOpen)
	b.WriteString("# HELP modand_session_edits_total Session edits by how they were absorbed.\n")
	b.WriteString("# TYPE modand_session_edits_total counter\n")
	for _, mode := range []string{"full", "incremental"} {
		fmt.Fprintf(&b, "modand_session_edits_total{mode=%q} %d\n", mode, m.edits[mode])
	}

	b.WriteString("# HELP modand_lint_runs_total Diagnostics engine runs: one full-rules run per cached entry on its first /lint, one per session lint. Responses derived from an earlier run count nothing.\n")
	b.WriteString("# TYPE modand_lint_runs_total counter\n")
	fmt.Fprintf(&b, "modand_lint_runs_total %d\n", m.lintRuns)
	b.WriteString("# HELP modand_lint_findings_total Lint findings by rule ID, summed over the engine runs modand_lint_runs_total counts (not over responses).\n")
	b.WriteString("# TYPE modand_lint_findings_total counter\n")
	rules := make([]string, 0, len(m.lintHits))
	for rule := range m.lintHits {
		rules = append(rules, rule)
	}
	sort.Strings(rules)
	for _, rule := range rules {
		fmt.Fprintf(&b, "modand_lint_findings_total{rule=%q} %d\n", rule, m.lintHits[rule])
	}

	b.WriteString("# HELP modand_errors_total Structured error responses by error code.\n")
	b.WriteString("# TYPE modand_errors_total counter\n")
	codes := make([]string, 0, len(m.failures))
	for code := range m.failures {
		codes = append(codes, code)
	}
	sort.Strings(codes)
	for _, code := range codes {
		fmt.Fprintf(&b, "modand_errors_total{code=%q} %d\n", code, m.failures[code])
	}
	b.WriteString("# HELP modand_panics_total Handler panics isolated by the request plumbing.\n")
	b.WriteString("# TYPE modand_panics_total counter\n")
	fmt.Fprintf(&b, "modand_panics_total %d\n", m.panics)
	b.WriteString("# HELP modand_degraded_total Analyses served by the sequential fallback after a captured panic.\n")
	b.WriteString("# TYPE modand_degraded_total counter\n")
	fmt.Fprintf(&b, "modand_degraded_total %d\n", m.degraded)

	b.WriteString("# HELP modand_shed_total Requests shed by admission control (queue overflow or deadline while queued).\n")
	b.WriteString("# TYPE modand_shed_total counter\n")
	fmt.Fprintf(&b, "modand_shed_total %d\n", rs.shed)
	if rs.inFlight >= 0 {
		b.WriteString("# TYPE modand_inflight gauge\n")
		fmt.Fprintf(&b, "modand_inflight %d\n", rs.inFlight)
	}
	b.WriteString("# TYPE modand_queue_depth gauge\n")
	fmt.Fprintf(&b, "modand_queue_depth %d\n", rs.queued)

	b.WriteString("# HELP modand_faults_injected_total Deterministic faults injected, by site and kind.\n")
	b.WriteString("# TYPE modand_faults_injected_total counter\n")
	sites := make([]string, 0, len(rs.faults))
	for sk := range rs.faults {
		sites = append(sites, sk)
	}
	sort.Strings(sites)
	for _, sk := range sites {
		site, kind := sk, ""
		if i := strings.LastIndex(sk, "/"); i >= 0 {
			site, kind = sk[:i], sk[i+1:]
		}
		fmt.Fprintf(&b, "modand_faults_injected_total{site=%q,kind=%q} %d\n", site, kind, rs.faults[sk])
	}

	b.WriteString("# HELP modand_warm_hits_total Requests served from snapshot-backed entries (persisted checkpoint or indexer install).\n")
	b.WriteString("# TYPE modand_warm_hits_total counter\n")
	fmt.Fprintf(&b, "modand_warm_hits_total %d\n", m.warmHits)
	b.WriteString("# HELP modand_warm_entries Cache entries restored from persisted checkpoints.\n")
	b.WriteString("# TYPE modand_warm_entries gauge\n")
	fmt.Fprintf(&b, "modand_warm_entries %d\n", m.warmEntries)
	b.WriteString("# HELP modand_checkpoints_total Completed checkpoint writes.\n")
	b.WriteString("# TYPE modand_checkpoints_total counter\n")
	fmt.Fprintf(&b, "modand_checkpoints_total %d\n", m.checkpoints)
	b.WriteString("# TYPE modand_checkpoint_bytes_total counter\n")
	fmt.Fprintf(&b, "modand_checkpoint_bytes_total %d\n", m.checkpointBytes)
	b.WriteString("# TYPE modand_checkpoint_seconds_total counter\n")
	fmt.Fprintf(&b, "modand_checkpoint_seconds_total %g\n", m.checkpointSeconds)

	b.WriteString("# HELP modand_stage_seconds_total Analysis pipeline wall time by stage, from profiled cache-miss computations.\n")
	b.WriteString("# TYPE modand_stage_seconds_total counter\n")
	stages := make([]string, 0, len(m.stageSecs))
	for st := range m.stageSecs {
		stages = append(stages, st)
	}
	sort.Strings(stages)
	for _, st := range stages {
		fmt.Fprintf(&b, "modand_stage_seconds_total{stage=%q} %g\n", st, m.stageSecs[st])
	}

	b.WriteString("# HELP modand_condensed_rows_total Dense escape rows materialized by the SCC-condensed GMOD solver.\n")
	b.WriteString("# TYPE modand_condensed_rows_total counter\n")
	fmt.Fprintf(&b, "modand_condensed_rows_total %d\n", m.condensedRows)
	b.WriteString("# HELP modand_shared_row_hits_total Call-graph components whose escape set aliased a successor's row (zero private storage).\n")
	b.WriteString("# TYPE modand_shared_row_hits_total counter\n")
	fmt.Fprintf(&b, "modand_shared_row_hits_total %d\n", m.sharedRowHits)

	b.WriteString("# HELP modand_analysis_seconds Wall time of analysis computations: one sample per cache miss, whichever endpoint caused it; session work is not observed.\n")
	b.WriteString("# TYPE modand_analysis_seconds histogram\n")
	var cum int64
	for i, bound := range latencyBounds {
		cum += m.latency.counts[i]
		fmt.Fprintf(&b, "modand_analysis_seconds_bucket{le=%q} %d\n", trimFloat(bound), cum)
	}
	cum += m.latency.counts[len(latencyBounds)]
	fmt.Fprintf(&b, "modand_analysis_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(&b, "modand_analysis_seconds_sum %g\n", m.latency.sum)
	fmt.Fprintf(&b, "modand_analysis_seconds_count %d\n", m.latency.count)
	return b.String()
}

func trimFloat(f float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.5f", f), "0"), ".")
}
