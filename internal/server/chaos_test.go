package server

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sideeffect"
	"sideeffect/internal/report"
	"sideeffect/internal/workload"
)

// The chaos soak drives an in-process modand with mixed traffic under
// fault injection and checks the tentpole invariant: every response is
// either a correct answer (differentially checked against a fresh,
// fault-free analysis) or a structured error — never a wrong bit
// vector — and afterwards every session closes and the goroutine count
// returns to baseline.
//
// Reproduce a CI run locally with:
//
//	go test ./internal/server -run TestChaosSoak \
//	    -chaos.requests 10000 -chaos.rate 0.05 -chaos.seed 1
var (
	chaosRequests = flag.Int("chaos.requests", 0, "chaos soak request count (0 = 10000, or 800 with -short)")
	chaosRate     = flag.Float64("chaos.rate", 0.05, "chaos soak fault probability per fault point")
	chaosSeed     = flag.Int64("chaos.seed", 1, "chaos soak fault-injection seed")
)

func chaosRequestCount() int {
	if *chaosRequests > 0 {
		return *chaosRequests
	}
	if testing.Short() {
		return 800
	}
	return 10000
}

// chaosCorpusEntry is one program the soak traffic draws from, with the
// ground truth computed fault-free up front.
type chaosCorpusEntry struct {
	src    string
	edited string // src with one appended statement (an additive edit)
	// expect / expectEdited are the JSON report forms (as decoded any
	// values) of a fresh fault-free analysis of src / edited.
	expect, expectEdited any
	procs                []string
	mod                  map[string][]string
}

// chaosGroundTruth analyzes src without faults and returns the decoded
// JSON report — the value every server answer for src must match.
func chaosGroundTruth(t *testing.T, src string) (any, []string, map[string][]string) {
	t.Helper()
	a, err := sideeffect.AnalyzeWith(src, sideeffect.Options{Workers: 1})
	if err != nil {
		t.Fatalf("ground truth: %v", err)
	}
	raw, err := json.Marshal(report.BuildJSON(a.Mod, a.Use, a.Aliases, a.SecMod))
	if err != nil {
		t.Fatal(err)
	}
	var decoded any
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	procs := a.Procedures()
	mod := make(map[string][]string, len(procs))
	for _, p := range procs {
		names, err := a.MOD(p)
		if err != nil {
			t.Fatal(err)
		}
		if names == nil {
			names = []string{}
		}
		mod[p] = names
	}
	return decoded, procs, mod
}

// appendStatement inserts "g0 := 0" at the end of the main body — an
// additive edit every generated program (which always declares g0)
// accepts.
func appendStatement(src string) string {
	i := strings.LastIndex(src, "\nend.")
	return src[:i] + "\n  g0 := 0;" + src[i:]
}

func chaosCorpus(t *testing.T) []chaosCorpusEntry {
	t.Helper()
	n := 16
	if testing.Short() {
		n = 8
	}
	corpus := make([]chaosCorpusEntry, n)
	for i := range corpus {
		cfg := workload.DefaultConfig(6+(i%5)*3, int64(40+i))
		e := chaosCorpusEntry{src: workload.Emit(workload.Random(cfg))}
		e.edited = appendStatement(e.src)
		e.expect, e.procs, e.mod = chaosGroundTruth(t, e.src)
		e.expectEdited, _, _ = chaosGroundTruth(t, e.edited)
		corpus[i] = e
	}
	return corpus
}

// chaosInvalid are sources that must never produce a 2xx answer.
var chaosInvalid = []string{
	"program broken\nbegin end.",           // missing semicolon
	"program p;\nbegin\n  call q(g)\nend.", // undeclared procedure
}

// chaosErrCodes maps every structured error code to its only legal
// HTTP status.
var chaosErrCodes = map[string]int{
	"bad_request":      http.StatusBadRequest,
	"analysis_failed":  http.StatusUnprocessableEntity,
	"timeout":          http.StatusServiceUnavailable,
	"too_large":        http.StatusRequestEntityTooLarge,
	"not_found":        http.StatusNotFound,
	"session_limit":    http.StatusTooManyRequests,
	"overloaded":       http.StatusTooManyRequests,
	"internal":         http.StatusInternalServerError,
	"fault_injected":   http.StatusInternalServerError,
	"session_poisoned": http.StatusConflict,
}

// chaosResponse is the union of every endpoint's answer shape; unused
// fields stay zero.
type chaosResponse struct {
	Error *struct {
		Code string `json:"code"`
	} `json:"error"`
	Hash    string          `json:"hash"`
	Report  json.RawMessage `json:"report"`
	Names   []string        `json:"names"`
	Results []struct {
		Report json.RawMessage `json:"report"`
		Error  string          `json:"error"`
	} `json:"results"`
	ID       string `json:"id"`
	Mode     string `json:"mode"`
	Findings *int   `json:"findings"`
	Deleted  string `json:"deleted"`
}

// chaosClient issues soak requests from its own goroutine and records
// violations instead of failing the test mid-flight.
type chaosClient struct {
	base    string
	corpus  []chaosCorpusEntry
	r       *rand.Rand
	fail    func(format string, args ...any)
	cleanup *chaosSessionList
}

// chaosSessionList collects every session the soak opened so the test
// can delete stragglers before checking drain invariants.
type chaosSessionList struct {
	mu  sync.Mutex
	ids []string
}

func (l *chaosSessionList) add(id string) {
	l.mu.Lock()
	l.ids = append(l.ids, id)
	l.mu.Unlock()
}

func (l *chaosSessionList) all() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.ids...)
}

// do issues one request and decodes the envelope. Transport errors are
// violations: the server process must never die mid-soak.
func (c *chaosClient) do(method, path string, body any) (int, *chaosResponse, bool) {
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			c.fail("encode %s %s: %v", method, path, err)
			return 0, nil, false
		}
	}
	req, err := http.NewRequest(method, c.base+path, &buf)
	if err != nil {
		c.fail("build %s %s: %v", method, path, err)
		return 0, nil, false
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.fail("%s %s: transport error: %v", method, path, err)
		return 0, nil, false
	}
	defer resp.Body.Close()
	var out chaosResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		c.fail("%s %s: status %d with undecodable body: %v", method, path, resp.StatusCode, err)
		return resp.StatusCode, nil, false
	}
	return resp.StatusCode, &out, true
}

// checkError validates a non-2xx answer: structured, known code, and
// the code's canonical status.
func (c *chaosClient) checkError(label string, status int, resp *chaosResponse) {
	if resp.Error == nil || resp.Error.Code == "" {
		c.fail("%s: status %d without a structured error", label, status)
		return
	}
	want, known := chaosErrCodes[resp.Error.Code]
	if !known {
		c.fail("%s: unknown error code %q", label, resp.Error.Code)
	} else if status != want {
		c.fail("%s: code %q arrived with status %d, want %d", label, resp.Error.Code, status, want)
	}
}

// checkReport differentially validates a served report against the
// fault-free ground truth.
func (c *chaosClient) checkReport(label string, raw json.RawMessage, expect any) {
	var got any
	if err := json.Unmarshal(raw, &got); err != nil {
		c.fail("%s: undecodable report: %v", label, err)
		return
	}
	if !reflect.DeepEqual(got, expect) {
		c.fail("%s: report differs from fault-free analysis (%s)", label, diffJSON(got, expect))
	}
}

// diffJSON locates the first divergence between two decoded JSON
// values so a soak failure names the corrupted field instead of just
// "differs".
func diffJSON(got, want any) string {
	g, _ := json.Marshal(got)
	w, _ := json.Marshal(want)
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	window := func(b []byte) string {
		lo, hi := i-50, i+50
		if lo < 0 {
			lo = 0
		}
		if hi > len(b) {
			hi = len(b)
		}
		return string(b[lo:hi])
	}
	return fmt.Sprintf("diverges at byte %d: got ...%s..., want ...%s...", i, window(g), window(w))
}

func (c *chaosClient) analyzeOp() {
	e := &c.corpus[c.r.Intn(len(c.corpus))]
	if c.r.Intn(8) == 0 { // sometimes an invalid source
		src := chaosInvalid[c.r.Intn(len(chaosInvalid))]
		status, resp, ok := c.do(http.MethodPost, "/analyze", map[string]any{"source": src})
		if !ok {
			return
		}
		if status == http.StatusOK {
			c.fail("analyze(invalid): served 200 for an unparseable program")
			return
		}
		c.checkError("analyze(invalid)", status, resp)
		return
	}
	if c.r.Intn(4) == 0 { // query form
		proc := e.procs[c.r.Intn(len(e.procs))]
		body := map[string]any{"source": e.src, "query": map[string]any{"kind": "gmod", "proc": proc}}
		status, resp, ok := c.do(http.MethodPost, "/analyze", body)
		if !ok {
			return
		}
		if status != http.StatusOK {
			c.checkError("analyze(gmod)", status, resp)
			return
		}
		names := resp.Names
		if names == nil {
			names = []string{}
		}
		if !reflect.DeepEqual(names, e.mod[proc]) {
			c.fail("analyze(gmod %s): %v differs from fault-free %v", proc, names, e.mod[proc])
		}
		return
	}
	status, resp, ok := c.do(http.MethodPost, "/analyze", map[string]any{"source": e.src})
	if !ok {
		return
	}
	if status != http.StatusOK {
		c.checkError("analyze", status, resp)
		return
	}
	c.checkReport("analyze", resp.Report, e.expect)
}

func (c *chaosClient) batchOp() {
	n := 2 + c.r.Intn(4)
	srcs := make([]string, n)
	expects := make([]any, n) // nil marks an invalid source
	for i := range srcs {
		if c.r.Intn(6) == 0 {
			srcs[i] = chaosInvalid[c.r.Intn(len(chaosInvalid))]
		} else {
			e := &c.corpus[c.r.Intn(len(c.corpus))]
			srcs[i] = e.src
			expects[i] = e.expect
		}
	}
	status, resp, ok := c.do(http.MethodPost, "/batch", map[string]any{"sources": srcs})
	if !ok {
		return
	}
	if status != http.StatusOK {
		c.checkError("batch", status, resp)
		return
	}
	if len(resp.Results) != n {
		c.fail("batch: %d results for %d sources", len(resp.Results), n)
		return
	}
	for i, r := range resp.Results {
		label := fmt.Sprintf("batch[%d]", i)
		switch {
		case expects[i] == nil && r.Error == "":
			c.fail("%s: invalid source produced no error", label)
		case expects[i] != nil && r.Error == "" && r.Report != nil:
			c.checkReport(label, r.Report, expects[i])
		case r.Error == "" && r.Report == nil:
			c.fail("%s: neither report nor error", label)
		}
	}
}

func (c *chaosClient) lintOp() {
	e := &c.corpus[c.r.Intn(len(c.corpus))]
	status, resp, ok := c.do(http.MethodPost, "/lint", map[string]any{"source": e.src})
	if !ok {
		return
	}
	if status != http.StatusOK {
		c.checkError("lint", status, resp)
		return
	}
	if resp.Findings == nil {
		c.fail("lint: 200 without findings count")
	}
}

func (c *chaosClient) sessionOp() {
	k := c.r.Intn(len(c.corpus))
	e := &c.corpus[k]
	status, resp, ok := c.do(http.MethodPost, "/session", map[string]any{"source": e.src})
	if !ok {
		return
	}
	if status != http.StatusCreated {
		c.checkError("session create", status, resp)
		return
	}
	id := resp.ID
	if id == "" {
		c.fail("session create: 201 without an id")
		return
	}
	c.cleanup.add(id)
	lbl := fmt.Sprintf("session %s[k=%d] create", id, k)
	c.checkReport(lbl, resp.Report, e.expect)

	// One or two edits: additive (incremental path) or a switch to
	// another corpus program (full path). Track the expected state; the
	// label accumulates the trail so a late mismatch names the exact
	// request sequence that produced it.
	expect := e.expect
	for i := 0; i < 1+c.r.Intn(2); i++ {
		var newSrc string
		var newExpect any
		var which string
		if c.r.Intn(2) == 0 {
			newSrc, newExpect, which = e.edited, e.expectEdited, "additive"
		} else {
			o := c.r.Intn(len(c.corpus))
			newSrc, newExpect = c.corpus[o].src, c.corpus[o].expect
			which = fmt.Sprintf("switch(k=%d)", o)
		}
		status, resp, ok := c.do(http.MethodPost, "/session/"+id+"/edit", map[string]any{"source": newSrc})
		if !ok {
			return
		}
		lbl += fmt.Sprintf(" edit:%s=%d", which, status)
		if status != http.StatusOK {
			c.checkError(lbl, status, resp)
			if resp.Error != nil && resp.Error.Code == "session_poisoned" {
				c.deleteSession(id)
				return
			}
			continue // state unchanged (transactional edit semantics)
		}
		lbl += "/" + resp.Mode
		c.checkReport(lbl, resp.Report, newExpect)
		expect = newExpect
	}

	status, resp, ok = c.do(http.MethodGet, "/session/"+id, nil)
	if ok {
		if status == http.StatusOK {
			c.checkReport(lbl+" get", resp.Report, expect)
		} else {
			c.checkError(lbl+" get", status, resp)
		}
	}
	c.deleteSession(id)
}

func (c *chaosClient) deleteSession(id string) {
	status, resp, ok := c.do(http.MethodDelete, "/session/"+id, nil)
	if !ok {
		return
	}
	if status != http.StatusOK && status != http.StatusNotFound {
		c.checkError("session delete", status, resp)
	}
}

func (c *chaosClient) op() {
	switch p := c.r.Intn(100); {
	case p < 55:
		c.analyzeOp()
	case p < 70:
		c.batchOp()
	case p < 85:
		c.sessionOp()
	default:
		c.lintOp()
	}
}

func TestChaosSoak(t *testing.T) {
	goroutinesBefore := runtime.NumGoroutine()

	srv := New(Config{
		Workers:     4,
		MaxInFlight: 8,
		MaxQueue:    16,
		Timeout:     10 * time.Second,
		FaultRate:   *chaosRate,
		FaultSeed:   *chaosSeed,
	})
	ts := httptest.NewServer(srv.Handler())

	corpus := chaosCorpus(t)
	total := chaosRequestCount()
	workers := 8

	// Violations are counted and reported with examples; a systematic
	// failure aborts early instead of printing thousands of lines.
	var violations atomic.Int64
	var failMu sync.Mutex
	var examples []string
	fail := func(format string, args ...any) {
		n := violations.Add(1)
		if n <= 10 {
			failMu.Lock()
			examples = append(examples, fmt.Sprintf(format, args...))
			failMu.Unlock()
		}
	}
	cleanup := &chaosSessionList{}

	var wg sync.WaitGroup
	var issued atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := &chaosClient{
				base:    ts.URL,
				corpus:  corpus,
				r:       rand.New(rand.NewSource(*chaosSeed + int64(w))),
				fail:    fail,
				cleanup: cleanup,
			}
			for issued.Add(1) <= int64(total) && violations.Load() < 50 {
				c.op()
			}
		}(w)
	}
	wg.Wait()

	// Report violations with t.Error, not Fatal: the drain invariants
	// below still run.
	if n := violations.Load(); n > 0 {
		for _, ex := range examples {
			t.Error(ex)
		}
		t.Errorf("chaos soak: %d violations in %d requests", n, total)
	}

	// Burst phase: saturate the admission gate and verify deterministic
	// shedding — with every slot held and the queue full, the next
	// request is turned away with 429 before it touches any fault point.
	if srv.adm.sem != nil {
		for i := 0; i < cap(srv.adm.sem); i++ {
			if apiErr := srv.adm.acquire(context.Background()); apiErr != nil {
				t.Fatalf("burst: could not hold slot %d: %v", i, apiErr)
			}
		}
		queuedDone := make(chan int, srv.cfg.MaxQueue)
		for i := 0; i < srv.cfg.MaxQueue; i++ {
			go func() {
				var out chaosResponse
				queuedDone <- request(t, http.MethodPost, ts.URL+"/analyze",
					map[string]any{"source": corpus[0].src}, &out)
			}()
		}
		deadline := time.Now().Add(5 * time.Second)
		for srv.adm.queued.Load() < int64(srv.cfg.MaxQueue) && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := srv.adm.queued.Load(); got != int64(srv.cfg.MaxQueue) {
			t.Fatalf("burst: only %d of %d requests queued", got, srv.cfg.MaxQueue)
		}
		var eb errorBody
		if code := post(t, ts.URL+"/analyze", map[string]any{"source": corpus[0].src}, &eb); code != http.StatusTooManyRequests {
			t.Fatalf("burst overflow request got %d, want 429", code)
		}
		if eb.Error.Code != "overloaded" {
			t.Fatalf("burst overflow code %q, want overloaded", eb.Error.Code)
		}
		for i := 0; i < cap(srv.adm.sem); i++ {
			srv.adm.release()
		}
		for i := 0; i < srv.cfg.MaxQueue; i++ {
			<-queuedDone
		}
	}

	// Drain: delete every session the soak opened (requests may have
	// been shed mid-flow).
	for _, id := range cleanup.all() {
		for attempt := 0; attempt < 20; attempt++ {
			var out chaosResponse
			code := request(t, http.MethodDelete, ts.URL+"/session/"+id, nil, &out)
			if code == http.StatusOK || code == http.StatusNotFound {
				break
			}
		}
	}
	if open := srv.sessions.open(); open != 0 {
		t.Fatalf("%d sessions still open after cleanup", open)
	}

	if srv.faults.Total() == 0 && *chaosRate > 0 {
		t.Error("soak injected zero faults; the chaos layer was not exercised")
	}

	// Goroutines return to baseline once the HTTP server closes.
	ts.Close()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore+3 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutinesBefore+3 {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutines leaked: %d before, %d after\n%s",
			goroutinesBefore, n, buf[:runtime.Stack(buf, true)])
	}
}

// TestChaosSeedReproducible replays one sequential request script
// against two servers armed with the same seed: the responses and the
// injector's per-site fault counts must match exactly.
func TestChaosSeedReproducible(t *testing.T) {
	corpus := chaosCorpus(t)
	script := rand.New(rand.NewSource(99))
	type step struct {
		path string
		body map[string]any
	}
	steps := make([]step, 200)
	for i := range steps {
		e := &corpus[script.Intn(len(corpus))]
		switch script.Intn(3) {
		case 0:
			steps[i] = step{"/analyze", map[string]any{"source": e.src}}
		case 1:
			o := &corpus[script.Intn(len(corpus))]
			steps[i] = step{"/batch", map[string]any{"sources": []string{e.src, o.src}}}
		default:
			steps[i] = step{"/lint", map[string]any{"source": e.src}}
		}
	}

	run := func() ([]string, map[string]uint64) {
		srv := New(Config{Workers: 1, FaultRate: 0.1, FaultSeed: 7})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		outcomes := make([]string, 0, len(steps))
		for _, st := range steps {
			var resp chaosResponse
			code := post(t, ts.URL+st.path, st.body, &resp)
			o := fmt.Sprintf("%s:%d", st.path, code)
			if resp.Error != nil {
				o += ":" + resp.Error.Code
			}
			outcomes = append(outcomes, o)
		}
		return outcomes, srv.FaultCounts()
	}

	out1, faults1 := run()
	out2, faults2 := run()
	if !reflect.DeepEqual(out1, out2) {
		for i := range out1 {
			if out1[i] != out2[i] {
				t.Fatalf("request %d diverged: %q vs %q", i, out1[i], out2[i])
			}
		}
	}
	if !reflect.DeepEqual(faults1, faults2) {
		t.Fatalf("fault counts diverged:\n%v\nvs\n%v", faults1, faults2)
	}
	if len(faults1) == 0 {
		t.Fatal("no faults fired at rate 0.1; determinism check is vacuous")
	}
}
