// Package server is the serving subsystem behind cmd/modand: an
// HTTP/JSON API over the sideeffect analysis pipeline, built for the
// programming-environment scenario the paper targets — a long-lived
// process that re-answers MOD/USE queries as programs are edited,
// serving memoized summaries instead of recomputing from scratch.
//
// Three request families are exposed:
//
//   - POST /analyze — one-shot analysis of a source text, served from a
//     content-addressed LRU (internal/cache) with singleflight
//     deduplication; responses carry the full JSON report or the answer
//     to one query (gmod/guse/rmod/callsites/report).
//   - POST /batch — many sources, repeats dropped, fanned out over the
//     bounded worker pool (internal/batch); each one resolves through
//     the same cache and miss path as /analyze.
//   - /session — stateful handles that hold a program open and absorb
//     edits through sideeffect.Session: additive edits ride the
//     incremental engine, anything else falls back to full reanalysis.
//
// Production plumbing: request-size limits, per-request timeouts with
// structured JSON errors, Prometheus-style counters and latency
// histograms at /metrics, expvar at /debug/vars, and pprof at
// /debug/pprof/. Graceful shutdown is the daemon's job (cmd/modand).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"sideeffect"
	"sideeffect/internal/batch"
	"sideeffect/internal/cache"
	"sideeffect/internal/faultinject"
	"sideeffect/internal/gofront"
	"sideeffect/internal/report"
	"sideeffect/internal/store"
)

// Config tunes the server. The zero value gets sensible production
// defaults from withDefaults.
type Config struct {
	// Workers bounds the analysis pools (0 = GOMAXPROCS; negative
	// values are normalized by the library).
	Workers int
	// CacheEntries bounds the content-addressed result cache
	// (default 256 entries).
	CacheEntries int
	// MaxRequestBytes bounds request bodies (default 1 MiB). Larger
	// requests receive 413 with a structured error.
	MaxRequestBytes int64
	// Timeout bounds each request's analysis work (default 30s).
	// Requests that exceed it receive 503; the underlying computation
	// is left to finish and populate the cache.
	Timeout time.Duration
	// MaxSessions bounds concurrently open sessions (default 64).
	MaxSessions int
	// MaxBatchSources bounds the number of sources per /batch request
	// (default 256).
	MaxBatchSources int
	// MaxInFlight bounds the analysis-bearing requests executing at
	// once (default 32, -1 = unlimited). Requests beyond it wait in the
	// admission queue.
	MaxInFlight int
	// MaxQueue bounds the requests waiting for an admission slot
	// (default 64, -1 = unlimited). Requests beyond it are shed with
	// 429 and a Retry-After header instead of piling onto a saturated
	// server.
	MaxQueue int
	// FaultRate, when positive, arms deterministic fault injection at
	// probability FaultRate per fault point, both in the request
	// plumbing and through the analysis pipeline. Chaos testing only.
	FaultRate float64
	// FaultSeed seeds the injector; the same seed and request sequence
	// replays the same faults.
	FaultSeed int64
}

func (c Config) withDefaults() Config {
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.MaxRequestBytes == 0 {
		c.MaxRequestBytes = 1 << 20
	}
	if c.Timeout == 0 {
		c.Timeout = 30 * time.Second
	}
	if c.MaxSessions == 0 {
		c.MaxSessions = 64
	}
	if c.MaxBatchSources == 0 {
		c.MaxBatchSources = 256
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 32
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 64
	}
	return c
}

// admission is the load-shedding gate in front of every
// analysis-bearing endpoint: at most maxInFlight requests compute at
// once, at most maxQueue more wait for a slot, and the rest are shed
// immediately with 429 — a saturated server stays responsive instead of
// stacking unbounded goroutines behind the worker pool.
type admission struct {
	sem      chan struct{} // nil = unlimited
	maxQueue int64         // <0 = unlimited
	queued   atomic.Int64
	shed     atomic.Int64
}

func newAdmission(maxInFlight, maxQueue int) *admission {
	ad := &admission{maxQueue: int64(maxQueue)}
	if maxInFlight > 0 {
		ad.sem = make(chan struct{}, maxInFlight)
	}
	return ad
}

// acquire blocks until a slot frees, the queue overflows (shed), or ctx
// expires. A nil return means the caller holds a slot and must release.
func (ad *admission) acquire(ctx context.Context) *apiError {
	if ad.sem == nil {
		return nil
	}
	select {
	case ad.sem <- struct{}{}:
		return nil
	default:
	}
	if n := ad.queued.Add(1); ad.maxQueue >= 0 && n > ad.maxQueue {
		ad.queued.Add(-1)
		ad.shed.Add(1)
		return errOverloaded()
	}
	defer ad.queued.Add(-1)
	select {
	case ad.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		ad.shed.Add(1)
		return errTimeout()
	}
}

func (ad *admission) release() {
	if ad.sem != nil {
		<-ad.sem
	}
}

func (ad *admission) inFlight() int {
	if ad.sem == nil {
		return -1
	}
	return len(ad.sem)
}

// Server is the analysis service. Create with New, expose with
// Handler.
type Server struct {
	cfg      Config
	opts     sideeffect.Options
	faults   *faultinject.Injector
	adm      *admission
	cache    *cache.Cache[*cached]
	sessions *sessionStore
	met      *metrics
	mux      *http.ServeMux
	// index is the attached watch-mode indexer view (nil when the
	// daemon runs without -watch); see index.go.
	index atomic.Pointer[indexHolder]
}

// New builds a server with its routes registered.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	faults := faultinject.New(faultinject.Config{Rate: cfg.FaultRate, Seed: cfg.FaultSeed})
	s := &Server{
		cfg:      cfg,
		opts:     sideeffect.Options{Workers: cfg.Workers, Faults: faults},
		faults:   faults,
		adm:      newAdmission(cfg.MaxInFlight, cfg.MaxQueue),
		cache:    cache.New[*cached](cfg.CacheEntries),
		sessions: newSessionStore(cfg.MaxSessions),
		met:      newMetrics(),
	}
	// The validation hook guards every cache hit, covering the backing
	// and every stored body a hit writes; the "cache.entry" fault point
	// simulates corruption so chaos runs exercise the evict-and-recompute
	// path.
	s.cache.Validate = func(_ string, e *cached) bool {
		return !s.faults.Corrupt("cache.entry") && e.intact()
	}
	s.mux = http.NewServeMux()
	s.routeHeavy("POST /analyze", "/analyze", s.handleAnalyze)
	s.routeHeavy("POST /batch", "/batch", s.handleBatch)
	s.routeHeavy("POST /lint", "/lint", s.handleLint)
	s.routeHeavy("POST /session/{id}/lint", "/session/{id}/lint", s.handleSessionLint)
	s.routeHeavy("POST /session", "/session", s.handleSessionCreate)
	s.route("GET /session/{id}", "/session/{id}", s.handleSessionGet)
	s.routeHeavy("POST /session/{id}/edit", "/session/{id}/edit", s.handleSessionEdit)
	s.route("DELETE /session/{id}", "/session/{id}", s.handleSessionDelete)
	s.route("GET /index/status", "/index/status", s.handleIndexStatus)
	s.route("GET /index/files", "/index/files", s.handleIndexFiles)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	})
	s.mux.Handle("GET /debug/vars", expvar.Handler())
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// apiError is the structured error payload every failure returns,
// wrapped as {"error": {...}}.
type apiError struct {
	Status  int    `json:"status"`
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfter, when positive, is sent as a Retry-After header (shed
	// responses carry it so well-behaved clients back off).
	RetryAfter int `json:"-"`
}

func (e *apiError) Error() string { return e.Message }

func errBadRequest(format string, args ...any) *apiError {
	return &apiError{Status: http.StatusBadRequest, Code: "bad_request", Message: fmt.Sprintf(format, args...)}
}

func errAnalysis(err error) *apiError {
	return &apiError{Status: http.StatusUnprocessableEntity, Code: "analysis_failed", Message: err.Error()}
}

func errTimeout() *apiError {
	return &apiError{Status: http.StatusServiceUnavailable, Code: "timeout", Message: "analysis did not finish within the request budget"}
}

func errTooLarge(limit int64) *apiError {
	return &apiError{Status: http.StatusRequestEntityTooLarge, Code: "too_large",
		Message: fmt.Sprintf("request body exceeds the %d-byte limit", limit)}
}

func errNotFound(id string) *apiError {
	return &apiError{Status: http.StatusNotFound, Code: "not_found", Message: fmt.Sprintf("no session %q", id)}
}

func errSessionLimit(max int) *apiError {
	return &apiError{Status: http.StatusTooManyRequests, Code: "session_limit",
		Message: fmt.Sprintf("session table is full (%d open); DELETE one first", max)}
}

func errOverloaded() *apiError {
	return &apiError{Status: http.StatusTooManyRequests, Code: "overloaded",
		Message:    "server is at capacity and the admission queue is full; retry later",
		RetryAfter: 1}
}

func errInternal(err error) *apiError {
	return &apiError{Status: http.StatusInternalServerError, Code: "internal",
		Message: fmt.Sprintf("internal error: %v", err)}
}

func errFaultInjected(err error) *apiError {
	return &apiError{Status: http.StatusInternalServerError, Code: "fault_injected", Message: err.Error()}
}

// errFrom classifies a hardened-pipeline error into the structured
// vocabulary: an *apiError stays as it is, cancellation → timeout,
// injected faults → fault_injected, captured panics → internal, and
// everything else (parse/semantic failures) → analysis_failed. A
// failed session edit leaves the session as it was, so its error is
// classified the same way.
func errFrom(err error) *apiError {
	var (
		ae  *apiError
		inj *faultinject.InjectedError
		pe  *batch.PanicError
	)
	switch {
	case errors.As(err, &ae):
		return ae
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		return errTimeout()
	case errors.As(err, &inj):
		return errFaultInjected(err)
	case errors.As(err, &pe):
		return errInternal(err)
	default:
		return errAnalysis(err)
	}
}

// handlerFunc is a route body: it returns the status and response
// value, or an apiError.
type handlerFunc func(w http.ResponseWriter, r *http.Request) (int, any, *apiError)

// route registers fn under pattern with the shared plumbing: a request
// body size limit, a per-request timeout context, per-request panic
// isolation (a panicking handler answers with a structured 500, and
// the goroutine — which belongs to net/http, not a worker pool —
// survives), a fault point named after the endpoint, request counting
// by endpoint label, and structured error rendering.
func (s *Server) route(pattern, label string, fn handlerFunc) {
	s.routeWith(pattern, label, fn, false)
}

// routeHeavy is route behind the admission gate: the handler computes
// (or may compute), so it must hold an in-flight slot. Requests beyond
// MaxInFlight wait, requests beyond MaxQueue are shed with 429.
func (s *Server) routeHeavy(pattern, label string, fn handlerFunc) {
	s.routeWith(pattern, label, fn, true)
}

func (s *Server) routeWith(pattern, label string, fn handlerFunc, heavy bool) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes)
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
		defer cancel()
		status, body, apiErr := s.serve(ctx, label, heavy, fn, w, r)
		if apiErr != nil {
			status = apiErr.Status
			s.met.failure(apiErr.Code)
			if apiErr.RetryAfter > 0 {
				w.Header().Set("Retry-After", strconv.Itoa(apiErr.RetryAfter))
			}
			writeJSON(w, status, map[string]*apiError{"error": apiErr})
		} else {
			writeJSON(w, status, body)
		}
		s.met.request(label, status)
	})
}

// serve runs one request body under admission control, the endpoint
// fault point, and panic isolation.
func (s *Server) serve(ctx context.Context, label string, heavy bool, fn handlerFunc, w http.ResponseWriter, r *http.Request) (status int, body any, apiErr *apiError) {
	if heavy {
		if apiErr := s.adm.acquire(ctx); apiErr != nil {
			return 0, nil, apiErr
		}
		defer s.adm.release()
	}
	defer func() {
		if rec := recover(); rec != nil {
			s.met.panicked()
			if ip, ok := rec.(*faultinject.InjectedPanic); ok {
				status, body, apiErr = 0, nil, &apiError{
					Status: http.StatusInternalServerError, Code: "fault_injected", Message: ip.String(),
				}
				return
			}
			status, body, apiErr = 0, nil, errInternal(batch.Capture(rec))
		}
	}()
	// The endpoint fault point: an injected panic exercises the
	// recovery above, an injected error the structured-500 path.
	if err := s.faults.At("server" + label); err != nil {
		return 0, nil, errFaultInjected(err)
	}
	return fn(w, r.WithContext(ctx))
}

// FaultCounts reports the injector's per-site/kind fault counts (nil
// when fault injection is disarmed). Used by the chaos harness to
// assert determinism.
func (s *Server) FaultCounts() map[string]uint64 { return s.faults.Counts() }

// writeJSON writes v as the response: a storedBody as its bytes, with
// no encoder, and anything else through the indenting encoder.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	if sb, ok := v.(storedBody); ok {
		w.Header().Set("Content-Length", strconv.Itoa(len(sb.head)+len(sb.tail)))
		w.WriteHeader(status)
		_, _ = io.WriteString(w, sb.head)
		_, _ = w.Write(sb.tail)
		return
	}
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// decodeJSON reads the request body, which must hold one JSON value and
// nothing after it but whitespace, into v, translating the
// MaxBytesReader overflow into the structured 413.
func (s *Server) decodeJSON(r *http.Request, v any) *apiError {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	trailing := false
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			return nil
		}
		trailing = true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return errTooLarge(tooLarge.Limit)
	}
	if trailing {
		return errBadRequest("invalid JSON body: data after the top-level value")
	}
	return errBadRequest("invalid JSON body: %v", err)
}

// resolve returns the cache entry for src under lang ("" or "minipl",
// or "go"), computing it on a miss. It is the one miss path of every
// analyzing endpoint: /analyze and /lint pass the server's workers,
// profiled (requestOpts), and /batch one worker per program,
// unprofiled. A miss runs on the caller's goroutine under ctx and the
// server's fault injector, so nothing is left running in the
// background: a MiniPL source goes through sideeffect.AnalyzeContext,
// a Go source through sideeffect.AnalyzeGoSource as a single-file
// package. Either way a cancelled request stops at the next stage
// boundary (the Go lowering itself does not watch ctx), and a first
// attempt that dies with a captured panic is retried once on one
// worker, marking the entry degraded. Concurrent calls for one key
// share one computation and its outcome, errors included; errors are
// never cached, so the next call retries, and a caller whose ctx ends
// while another computes the key stops waiting. Each miss adds one
// modand_analysis_seconds sample and its stage and GMOD-work
// observations, and each call served by a snapshot-backed entry counts
// one warm hit.
func (s *Server) resolve(ctx context.Context, lang, src string, opts sideeffect.Options) (*cached, string, cache.Outcome, error) {
	switch lang {
	case "", "minipl":
		lang = "minipl"
	case "go":
	default:
		return nil, "", 0, errBadRequest("unknown lang %q (want minipl or go)", lang)
	}
	key := store.Key(lang, src)
	entry, outcome, err := s.cache.Do(ctx, key, func() (*cached, error) {
		start := time.Now()
		var (
			res sideeffect.GoResult
			err error
		)
		if lang == "go" {
			res, err = sideeffect.AnalyzeGoSource(ctx, "source.go", src, opts)
		} else {
			res.Analysis, err = sideeffect.AnalyzeContext(ctx, src, opts)
		}
		if err != nil {
			return nil, err
		}
		s.met.observeMiss(time.Since(start).Seconds(), res.Analysis)
		return newCached(res.Analysis, lang, res.Pkg)
	})
	if err != nil {
		return nil, key, outcome, err
	}
	if entry.snap != nil {
		s.met.warmHit()
	}
	return entry, key, outcome, nil
}

// requestOpts are the miss options of /analyze and /lint: the server's
// workers, profiled so /metrics can attribute analysis time to stages.
func (s *Server) requestOpts() sideeffect.Options {
	o := s.opts
	o.Profile = true
	return o
}

// analyzeRequest is the /analyze body. Query is optional; without it
// the response carries the full JSON report.
type analyzeRequest struct {
	Source string        `json:"source"`
	Query  *analyzeQuery `json:"query,omitempty"`
	// Lang selects the frontend: "" or "minipl" for MiniPL source,
	// "go" to lower Source as a single-file Go package. The ?lang=
	// query parameter sets it too (the body wins when both appear).
	Lang string `json:"lang,omitempty"`
}

// analyzeQuery selects one answer instead of the full report. Kind is
// one of "gmod", "guse", "rmod" (these need Proc), "callsites", or
// "report" (the human-readable text).
type analyzeQuery struct {
	Kind string `json:"kind"`
	Proc string `json:"proc,omitempty"`
}

// analyzeResponse is the /analyze answer. Exactly one of Report, Text,
// Names, or CallSites is populated, depending on the query. The
// full-report form is served from the entry's stored body, which holds
// the bytes the encoder writes for this struct.
type analyzeResponse struct {
	Hash      string                `json:"hash"`
	Cached    bool                  `json:"cached"`
	Report    *report.JSONReport    `json:"report,omitempty"`
	Text      string                `json:"text,omitempty"`
	Names     []string              `json:"names,omitempty"`
	CallSites []sideeffect.CallSite `json:"callSites,omitempty"`
	// Notes carries the Go frontend's per-function lowering-confidence
	// records (absent for MiniPL sources).
	Notes []gofront.Note `json:"notes,omitempty"`
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) (int, any, *apiError) {
	var req analyzeRequest
	if apiErr := s.decodeJSON(r, &req); apiErr != nil {
		return 0, nil, apiErr
	}
	if req.Source == "" {
		return 0, nil, errBadRequest("missing \"source\"")
	}
	if req.Lang == "" {
		req.Lang = r.URL.Query().Get("lang")
	}
	entry, key, outcome, err := s.resolve(r.Context(), req.Lang, req.Source, s.requestOpts())
	if err != nil {
		return 0, nil, errFrom(err)
	}
	hit := outcome == cache.Hit
	if req.Query == nil || req.Query.Kind == "" {
		return http.StatusOK, storedBody{head: analyzeHead(key, hit), tail: entry.full}, nil
	}
	resp := analyzeResponse{Hash: key, Cached: hit, Notes: entry.notes}
	q := req.Query
	var apiErr *apiError
	switch q.Kind {
	case "report":
		resp.Text = entry.textReport()
	case "gmod":
		resp.Names, err = entry.modNames(r.Context(), q.Proc)
	case "guse":
		resp.Names, err = entry.useNames(r.Context(), q.Proc)
	case "rmod":
		resp.Names, err = entry.rmodNames(r.Context(), q.Proc)
	case "callsites":
		resp.CallSites, err = entry.callSites(r.Context())
	default:
		return 0, nil, errBadRequest("unknown query kind %q (want gmod, guse, rmod, callsites, or report)", q.Kind)
	}
	switch {
	case err == nil:
	case errors.As(err, &apiErr):
		return 0, nil, apiErr
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return 0, nil, errTimeout()
	default:
		return 0, nil, errBadRequest("%v", err)
	}
	if resp.Names == nil {
		resp.Names = []string{}
	}
	return http.StatusOK, resp, nil
}

// batchRequest is the /batch body.
type batchRequest struct {
	Sources []string `json:"sources"`
}

// batchEntry is one source's outcome, in input order. Report is the
// report object inside the entry's stored body; the encoder compacts
// and re-indents it at this depth, which reproduces the bytes of
// encoding the report itself.
type batchEntry struct {
	Hash   string          `json:"hash"`
	Cached bool            `json:"cached"`
	Report json.RawMessage `json:"report,omitempty"`
	Error  string          `json:"error,omitempty"`
	// Degraded marks an answer the sequential fallback computed after
	// the first attempt died with a captured panic; the cached answer
	// keeps the mark.
	Degraded bool `json:"degraded,omitempty"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) (int, any, *apiError) {
	var req batchRequest
	if apiErr := s.decodeJSON(r, &req); apiErr != nil {
		return 0, nil, apiErr
	}
	if len(req.Sources) == 0 {
		return 0, nil, errBadRequest("missing \"sources\"")
	}
	if len(req.Sources) > s.cfg.MaxBatchSources {
		return 0, nil, errBadRequest("%d sources exceed the per-batch limit of %d", len(req.Sources), s.cfg.MaxBatchSources)
	}
	return http.StatusOK, map[string][]batchEntry{"results": s.runBatch(r.Context(), req.Sources)}, nil
}

// runBatch resolves every source through resolve with one worker per
// program, unprofiled. Repeated sources are resolved once and share
// the answer; the distinct ones fan out over the server's workers on
// the request's own goroutine. Cancellation propagates: once ctx is
// done, sources not yet dispatched carry the timeout error even when
// they are cached, running ones stop at their next stage boundary, and
// the pool is free when this returns, so a cancelled batch cannot
// strand workers.
func (s *Server) runBatch(ctx context.Context, sources []string) []batchEntry {
	opts := s.opts
	opts.Workers = 1
	at := make(map[string]int, len(sources)) // source → index into uniq
	var uniq []string
	for _, src := range sources {
		if _, dup := at[src]; !dup {
			at[src] = len(uniq)
			uniq = append(uniq, src)
		}
	}
	done, err := batch.MapCtx(ctx, s.cfg.Workers, uniq, func(_ int, src string) batchEntry {
		e, key, outcome, err := s.resolve(ctx, "minipl", src, opts)
		if err != nil {
			return batchEntry{Hash: key, Error: err.Error()}
		}
		return batchEntry{Hash: key, Cached: outcome == cache.Hit, Report: e.report, Degraded: e.a != nil && e.a.Degraded}
	})
	entries := make([]batchEntry, len(sources))
	for i, src := range sources {
		entries[i] = done[at[src]]
		if entries[i].Hash == "" {
			// Never dispatched: the slot is empty and err says why.
			entries[i] = batchEntry{Hash: store.Key("minipl", src), Error: err.Error()}
		}
	}
	return entries
}

// effectiveWorkers is the analysis pool size actually in use (the
// library treats 0 and negative Workers as GOMAXPROCS).
func (s *Server) effectiveWorkers() int {
	if s.cfg.Workers > 0 {
		return s.cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	rs := robustnessStats{
		inFlight: s.adm.inFlight(),
		queued:   s.adm.queued.Load(),
		shed:     s.adm.shed.Load(),
		faults:   s.faults.Counts(),
	}
	fmt.Fprint(w, s.met.render(s.cache.Stats(), s.sessions.open(), rs))
	// Capacity gauges: throughput numbers are only interpretable when
	// the worker-vs-core skew is visible next to them.
	fmt.Fprintf(w, "# HELP modand_num_cpu Logical CPUs visible to this process.\n")
	fmt.Fprintf(w, "# TYPE modand_num_cpu gauge\nmodand_num_cpu %d\n", runtime.NumCPU())
	fmt.Fprintf(w, "# TYPE modand_gomaxprocs gauge\nmodand_gomaxprocs %d\n", runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "# HELP modand_workers Analysis worker-pool size in effect.\n")
	fmt.Fprintf(w, "# TYPE modand_workers gauge\nmodand_workers %d\n", s.effectiveWorkers())
	if v := s.indexView(); v != nil {
		fmt.Fprint(w, v.MetricsLines())
	}
}
