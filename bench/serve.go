package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"time"

	"sideeffect"
	"sideeffect/internal/cache"
	"sideeffect/internal/lang/sem"
	"sideeffect/internal/lint"
	"sideeffect/internal/prof"
	"sideeffect/internal/report"
	"sideeffect/internal/server"
	"sideeffect/internal/workload"
)

// serve-mix drives the analysis daemon's handler over loopback HTTP
// from two closed-loop clients. 70% of requests ask for the full JSON
// report of a program in a warm working set, 10% ask a gmod or rmod
// query of one, 10% lint one, and 10% analyze a program the server has
// never seen. Warm hits exercise decode, cache and encode with no
// analysis; the cold tenth keeps the frontend and core on the request
// path, so a cache or encode change that slows misses shows.
var serveMixDef = workloadDef{name: "serve-mix", clients: serveClients, setup: setupServeMix}

// serveClients is the number of closed-loop clients, one per core of
// the two-core machine the benchmark was sized on.
const serveClients = 2

// queryProcs is the number of procedures per working-set program that
// gmod and rmod queries ask about, so that queries repeat.
const queryProcs = 8

type serveReq struct {
	kind, path string
	body       []byte
	key        string // cache.Key of the source
}

// coldProg is a program whose header is renamed per request, which
// makes every cold request a distinct source of the same shape.
type coldProg struct {
	src            string
	rest, restJSON string // the source after its name, raw and JSON-escaped
}

type serveMix struct {
	ts     *httptest.Server
	client *http.Client
	srcs   []string   // the working set
	warm   []serveReq // per working-set program: full, lint, then the queries
	stride int        // requests per working-set program in warm
	cold   []coldProg
	refs   sync.Map           // warm index → first response body
	before map[string]float64 // traced runs: /metrics at the end of set-up

	mu      sync.Mutex
	samples map[string][][]byte // traced runs: response bodies by kind
}

func setupServeMix(r *run) (instance, error) {
	s := r.sizes
	var h http.Handler = server.New(server.Config{}).Handler()
	if r.tr != nil {
		h = tracedHandler{h: h, tr: r.tr}
	}
	sm := &serveMix{
		ts:      httptest.NewServer(h),
		client:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}},
		stride:  2 + 2*queryProcs,
		samples: map[string][][]byte{},
	}
	for k := 0; k < s.servePrograms; k++ {
		n := s.serveMinProcs + k*(s.serveMaxProcs-s.serveMinProcs)/max(1, s.servePrograms-1)
		src := workload.Emit(workload.Random(workload.DefaultConfig(n, serveShape+int64(k))))
		sm.srcs = append(sm.srcs, src)
		key := cache.Key(src)
		add := func(kind, path string, body any) error {
			data, err := json.Marshal(body)
			sm.warm = append(sm.warm, serveReq{kind: kind, path: path, body: data, key: key})
			return err
		}
		if err := add("analyze", "/analyze", map[string]string{"source": src}); err != nil {
			return nil, err
		}
		if err := add("lint", "/lint", map[string]string{"source": src}); err != nil {
			return nil, err
		}
		for j := 0; j < queryProcs; j++ {
			for _, kind := range []string{"gmod", "rmod"} {
				body := map[string]any{"source": src, "query": map[string]string{"kind": kind, "proc": "p" + strconv.Itoa(j)}}
				if err := add("query", "/analyze", body); err != nil {
					return nil, err
				}
			}
		}
	}
	for k := 0; k < s.coldPool; k++ {
		src := workload.Emit(workload.Random(workload.DefaultConfig(s.coldProcs, serveShape+500+int64(k))))
		rest := src[strings.IndexByte(src, ';'):]
		esc, err := json.Marshal(rest)
		if err != nil {
			return nil, err
		}
		sm.cold = append(sm.cold, coldProg{src: src, rest: rest, restJSON: string(esc[1 : len(esc)-1])})
	}
	// Prime the cache with the working set.
	for k := 0; k < len(sm.warm); k += sm.stride {
		if _, err := sm.post(sm.warm[k].path, sm.warm[k].body, nil); err != nil {
			sm.close()
			return nil, fmt.Errorf("priming: %w", err)
		}
	}
	if r.tr != nil {
		var err error
		if sm.before, err = sm.scrape(); err != nil {
			sm.close()
			return nil, err
		}
	}
	return sm, nil
}

// tracedHandler times the server's handler for requests that carry the
// op and client span in headers.
type tracedHandler struct {
	h  http.Handler
	tr *tracer
}

func (t tracedHandler) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	op, err1 := strconv.Atoi(req.Header.Get("X-Bench-Op"))
	parent, err2 := strconv.Atoi(req.Header.Get("X-Bench-Span"))
	if err1 != nil || err2 != nil {
		t.h.ServeHTTP(w, req)
		return
	}
	id := t.tr.begin(op, parent, "server.Handler", "server")
	t.h.ServeHTTP(w, req)
	t.tr.end(id, nil)
}

// post sends one request and returns the 2xx response body.
func (s *serveMix) post(path string, body []byte, hdr map[string]string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, s.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("POST %s: status %d: %.200s", path, resp.StatusCode, data)
	}
	return data, nil
}

func (s *serveMix) round() int { return 1 }

func (s *serveMix) op(r *run, i int) error {
	u := mix(r.seed, i)
	var req serveReq
	warm := -1
	prog := int((u >> 8) % uint64(len(s.srcs)))
	switch x := u % 100; {
	case x < 70:
		warm = prog * s.stride
	case x < 80:
		warm = prog*s.stride + 2 + int((u>>32)%uint64(2*queryProcs))
	case x < 90:
		warm = prog*s.stride + 1
	default:
		c := s.cold[(u>>8)%uint64(len(s.cold))]
		name := "c" + strconv.Itoa(i)
		req = serveReq{kind: "cold", path: "/analyze", key: cache.Key("program " + name + c.rest),
			body: []byte(`{"source":"program ` + name + c.restJSON + `"}`)}
	}
	if warm >= 0 {
		req = s.warm[warm]
	}
	var hdr map[string]string
	root := 0
	if r.tr != nil {
		root = r.tr.begin(i, 0, "serve-mix.request", "server")
		hdr = map[string]string{"X-Bench-Op": strconv.Itoa(i), "X-Bench-Span": strconv.Itoa(root)}
	}
	body, err := s.post(req.path, req.body, hdr)
	r.tr.end(root, nil)
	r.add("n."+req.kind, 1)
	if err != nil {
		return fmt.Errorf("serve-mix op %d (%s): %w", i, req.kind, err)
	}
	r.add("resp_bytes", float64(len(body)))
	if r.tr != nil {
		s.sample(req.kind, body)
	}
	if warm < 0 || !s.firstBody(warm, body) {
		if !bytes.HasPrefix(body, []byte("{\n  \"hash\": \""+req.key+"\"")) {
			return fmt.Errorf("serve-mix op %d (%s): hash is not the cache key of the source", i, req.kind)
		}
		return nil
	}
	if ref, _ := s.refs.Load(warm); !bytes.Equal(body, ref.([]byte)) {
		return fmt.Errorf("serve-mix op %d (%s): body differs from the first response to the same request", i, req.kind)
	}
	return nil
}

// firstBody stores body as the reference for warm request w unless one
// is stored already, and reports whether one was.
func (s *serveMix) firstBody(w int, body []byte) bool {
	if _, ok := s.refs.Load(w); ok {
		return true
	}
	_, loaded := s.refs.LoadOrStore(w, bytes.Clone(body))
	return loaded
}

// maxSamples bounds the bodies kept per kind for the encode estimate.
const maxSamples = 16

func (s *serveMix) sample(kind string, body []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.samples[kind]) < maxSamples {
		s.samples[kind] = append(s.samples[kind], bytes.Clone(body))
	}
}

// scrape reads the server's /metrics counters.
func (s *serveMix) scrape() (map[string]float64, error) {
	resp, err := s.client.Get(s.ts.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if strings.HasPrefix(line, "#") || i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// Mirrors of the server's response bodies, for timing their encoding.
type analyzeBody struct {
	Hash   string             `json:"hash"`
	Cached bool               `json:"cached"`
	Report *report.JSONReport `json:"report,omitempty"`
	Names  []string           `json:"names,omitempty"`
}

type lintBody struct {
	Hash        string         `json:"hash,omitempty"`
	Cached      bool           `json:"cached,omitempty"`
	Findings    int            `json:"findings"`
	Counts      map[string]int `json:"counts"`
	Diagnostics []struct {
		Rule     string `json:"rule"`
		Name     string `json:"name"`
		Severity string `json:"severity"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Proc     string `json:"proc,omitempty"`
		Subject  string `json:"subject,omitempty"`
		Message  string `json:"message"`
	} `json:"diagnostics"`
}

// encodeTime is the mean time to encode a response of one kind the way
// the server does, over the sampled bodies.
func encodeTime(kind string, bodies [][]byte) (float64, error) {
	var total time.Duration
	for _, body := range bodies {
		var v any = &analyzeBody{}
		if kind == "lint" {
			v = &lintBody{}
		}
		if err := json.Unmarshal(body, v); err != nil {
			return 0, err
		}
		var buf bytes.Buffer
		t0 := time.Now()
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v); err != nil {
			return 0, err
		}
		total += time.Since(t0)
	}
	return float64(total.Nanoseconds()) / float64(max(1, len(bodies))), nil
}

func (s *serveMix) finish(r *run, b *breakdown) (map[string]float64, error) {
	if b == nil {
		return nil, nil
	}
	after, err := s.scrape()
	if err != nil {
		return nil, err
	}
	d := map[string]float64{}
	for k, v := range after {
		d[k] = v - s.before[k]
	}
	ops := float64(b.ops)
	misses, hits := d["modand_cache_misses_total"], d["modand_cache_hits_total"]
	// The server times the analysis stages of its misses itself.
	for k, v := range d {
		if stage, ok := strings.CutPrefix(k, `modand_stage_seconds_total{stage="`); ok {
			stage = strings.TrimSuffix(stage, `"}`)
			b.stage[stage] += v * 1e9
			b.move("server", stageLayer(stage), v*1e9)
		}
	}
	// The server does not time parsing, report building, encoding or
	// linting; those shares are measured here, outside the window, on
	// the same inputs, and moved out of the server's self time.
	var parseNS, renderNS, srcBytes, steps, components float64
	for _, c := range s.cold {
		t0 := time.Now()
		prog, err := sem.AnalyzeSource(c.src)
		if err != nil {
			return nil, err
		}
		prog = prog.Prune()
		parseNS += float64(time.Since(t0).Nanoseconds())
		a := sideeffect.AnalyzeProgramWith(prog, sideeffect.Options{})
		t0 = time.Now()
		report.BuildJSON(a.Mod, a.Use, a.Aliases, a.SecMod)
		renderNS += float64(time.Since(t0).Nanoseconds())
		srcBytes += float64(len(c.src))
		work := a.GMODWork()
		steps += float64(work.BitVectorSteps())
		components += float64(work.Components)
	}
	nc := float64(len(s.cold))
	parseNS, renderNS, srcBytes, steps, components = parseNS/nc, renderNS/nc, srcBytes/nc, steps/nc, components/nc
	var lintNS, findings float64
	lintStages := prof.New()
	for _, src := range s.srcs {
		a, err := sideeffect.Analyze(src)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		rep, err := a.Lint(lint.Config{Prof: lintStages})
		if err != nil {
			return nil, err
		}
		lintNS += float64(time.Since(t0).Nanoseconds())
		findings += float64(len(rep.Diags))
	}
	np := float64(len(s.srcs))
	nLint := r.sum("n.lint")
	for stage, ns := range stageNS(lintStages) {
		b.stage[stage] += float64(ns) / np * nLint
	}
	lintNS, findings = lintNS/np, findings/np
	var encodeNS float64
	for kind, bodies := range s.samples {
		t, err := encodeTime(kind, bodies)
		if err != nil {
			return nil, err
		}
		encodeNS += t * r.sum("n."+kind)
	}
	b.move("server", "lang", misses*parseNS)
	b.move("server", "lint", nLint*lintNS)
	b.move("server", "report", misses*renderNS+encodeNS)
	handler := b.spanNS["server.Handler"]
	m := map[string]float64{
		"lang.parse_ms":               misses * parseNS / 1e6 / ops,
		"lang.mb_per_s":               srcBytes / (1 << 20) / (parseNS / 1e9),
		"core.bit_vector_steps":       misses * steps / ops,
		"core.components":             misses * components / ops,
		"core.shared_row_hits":        d["modand_shared_row_hits_total"] / ops,
		"lint.ms":                     nLint * lintNS / 1e6 / ops,
		"lint.findings":               nLint * findings / ops,
		"report.render_ms":            misses * renderNS / 1e6 / ops,
		"report.bytes_per_op":         r.sum("resp_bytes") / ops,
		"server.handler_ms":           b.perOp(handler),
		"server.net_ms":               b.perOp(b.spanNS["serve-mix.request"] - handler),
		"server.encode_ms":            encodeNS / 1e6 / ops,
		"server.cache_hit_ratio":      hits / max(1, hits+misses),
		"server.analysis_ms_per_miss": 1e3 * d["modand_analysis_seconds_sum"] / max(1, d["modand_analysis_seconds_count"]),
		"server.resp_kb":              r.sum("resp_bytes") / 1024 / ops,
		"server.shed_rate":            d["modand_shed_total"] / ops,
	}
	b.stageMetrics(m)
	return m, nil
}

func (s *serveMix) close() {
	s.client.CloseIdleConnections()
	s.ts.Close()
}
