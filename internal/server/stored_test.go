package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"sideeffect"
	"sideeffect/internal/cache"
	"sideeffect/internal/gofront"
	"sideeffect/internal/report"
	"sideeffect/internal/store"
	"sideeffect/internal/workload"
)

// goNotesSrc lowers with a degraded confidence note (the unanalyzed
// fmt call), so the Go report carries a non-empty notes array.
const goNotesSrc = "package p\n\nimport \"fmt\"\n\nvar counter int\n\n" +
	"func Bump(p *int) { *p++; counter++ }\n\nfunc Log(p *int) { fmt.Println(p) }\n"

// encodeRef is the writer every response went through before cache
// entries stored their bodies: the indenting encoder over the response
// struct. Stored bodies must reproduce its bytes exactly.
func encodeRef(t *testing.T, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// refBatchEntry is batchEntry with the report as a struct, the shape
// /batch encoded before entries stored their bodies.
type refBatchEntry struct {
	Hash     string             `json:"hash"`
	Cached   bool               `json:"cached"`
	Report   *report.JSONReport `json:"report,omitempty"`
	Error    string             `json:"error,omitempty"`
	Degraded bool               `json:"degraded,omitempty"`
}

// storedCase is one request whose response a cache entry serves from
// stored bytes or derives from its stored lint run, with the response
// struct the reference writer encodes for it.
type storedCase struct {
	name string
	path string
	body any
	want func(hit bool) any
}

// storedFixture is one source analyzed outside any server: the
// reference answers, and the snapshot an indexer would install.
type storedFixture struct {
	src, lang, key string
	a              *sideeffect.Analysis
	notes          []gofront.Note
	conf           string
	cases          []storedCase
}

func newStoredFixture(t *testing.T, src, lang string) *storedFixture {
	t.Helper()
	f := &storedFixture{src: src, lang: lang}
	file := "source.mpl"
	if lang == "go" {
		res, err := sideeffect.AnalyzeGoSource(context.Background(), "source.go", src, sideeffect.Options{})
		if err != nil {
			t.Fatal(err)
		}
		f.a, f.notes, f.conf, f.key, file = res.Analysis, res.Pkg.Notes, res.Pkg.ConfidenceReport(), store.Key("go", src), "source.go"
		if len(f.notes) == 0 {
			t.Fatal("Go fixture has no notes")
		}
	} else {
		a, err := sideeffect.Analyze(src)
		if err != nil {
			t.Fatal(err)
		}
		f.a, f.key = a, cache.Key(src)
	}
	jr := f.a.JSONReport()
	f.cases = append(f.cases, storedCase{"analyze", "/analyze", analyzeRequest{Source: src, Lang: lang},
		func(hit bool) any { return analyzeResponse{Hash: f.key, Cached: hit, Report: jr, Notes: f.notes} }})
	for _, l := range []struct {
		name string
		req  lintRequest
	}{
		{"lint", lintRequest{}},
		{"lint-rules", lintRequest{Rules: []string{"SE002", "SE004", "SE005"}}},
		{"lint-disable", lintRequest{Disable: []string{"pure-procedure"}}},
		{"lint-minsev", lintRequest{MinSeverity: "warning"}},
		{"lint-text", lintRequest{Format: "text"}},
		{"lint-sarif", lintRequest{Format: "sarif"}},
	} {
		req := l.req
		req.Source, req.Lang = src, lang
		cfg, apiErr := req.lintConfig()
		if apiErr != nil {
			t.Fatal(apiErr)
		}
		// A fresh engine run of this configuration, as every /lint did
		// before entries kept one full-rules run.
		rep, err := f.a.Lint(cfg)
		if err != nil {
			t.Fatal(err)
		}
		resp, apiErr := renderLintResponse(rep, file, req.Format)
		if apiErr != nil {
			t.Fatal(apiErr)
		}
		f.cases = append(f.cases, storedCase{l.name, "/lint", req, func(hit bool) any {
			r := *resp
			r.Hash, r.Cached = f.key, hit
			return r
		}})
	}
	return f
}

// entry builds the live cache entry a miss on the fixture's source
// computes.
func (f *storedFixture) entry() (*cached, error) {
	if f.lang == "go" {
		res, err := sideeffect.AnalyzeGoSource(context.Background(), "source.go", f.src, sideeffect.Options{})
		if err != nil {
			return nil, err
		}
		return newCached(res.Analysis, "go", res.Pkg)
	}
	a, err := sideeffect.Analyze(f.src)
	if err != nil {
		return nil, err
	}
	return newCached(a, "minipl", nil)
}

// cachedEntry returns the entry srv's cache holds for key, served
// through Do with a compute that fails, so an absent key fails the
// test instead of being computed.
func cachedEntry(t *testing.T, srv *Server, key string) *cached {
	t.Helper()
	e, out, err := srv.cache.Do(context.Background(), key, func() (*cached, error) {
		return nil, errors.New("not cached")
	})
	if err != nil || out != cache.Hit {
		t.Fatalf("entry %s not cached: %v, %v", key, out, err)
	}
	return e
}

// postBytes is rawPost for goroutines other than the test's own.
func postBytes(url string, body any) (int, []byte, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// dedupBody sends c while another computation of the same source is in
// flight, so the request collapses into it (cache.Dedup).
func dedupBody(t *testing.T, f *storedFixture, c storedCase) []byte {
	t.Helper()
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	release := make(chan struct{})
	leader := make(chan error, 1)
	go func() {
		_, _, err := srv.cache.Do(context.Background(), f.key, func() (*cached, error) {
			<-release
			return f.entry()
		})
		leader <- err
	}()
	waitFor(t, "the leader's flight", func() bool { return srv.cache.Stats().Misses == 1 })
	type reply struct {
		code int
		body []byte
		err  error
	}
	got := make(chan reply, 1)
	go func() {
		code, body, err := postBytes(ts.URL+c.path, c.body)
		got <- reply{code, body, err}
	}()
	waitFor(t, "the request to join the flight", func() bool { return srv.cache.Stats().Dedups == 1 })
	close(release)
	if err := <-leader; err != nil {
		t.Fatal(err)
	}
	r := <-got
	if r.err != nil || r.code != http.StatusOK {
		t.Fatalf("%s dedup: status %d, err %v: %s", c.name, r.code, r.err, r.body)
	}
	return r.body
}

func checkStored(t *testing.T, label string, got []byte, c storedCase, hit bool) {
	t.Helper()
	if want := encodeRef(t, c.want(hit)); !bytes.Equal(got, want) {
		t.Errorf("%s/%s: body differs from the encoder's:\n got: %.400s\nwant: %.400s", label, c.name, got, want)
	}
}

// TestStoredBodiesMatchEncoder pins every stored or filtered response
// form to the bytes the indenting encoder writes for the response
// struct: the full /analyze report (MiniPL, and Go with notes) and
// /lint in the default and every non-default configuration and format,
// on a miss, a hit and a dedup, for live entries, entries restored from
// a checkpoint, and entries added with InstallSnapshot.
func TestStoredBodiesMatchEncoder(t *testing.T) {
	for _, tc := range []struct{ name, src, lang string }{
		{"minipl", workload.Emit(workload.Random(workload.DefaultConfig(24, 7))), ""},
		{"go", goNotesSrc, "go"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newStoredFixture(t, tc.src, tc.lang)

			// Live entries: each form's first request is the miss that
			// builds the entry, its second a hit.
			for _, c := range f.cases {
				ts := httptest.NewServer(New(Config{}).Handler())
				_, miss := rawPost(t, ts.URL+c.path, c.body)
				_, hit := rawPost(t, ts.URL+c.path, c.body)
				ts.Close()
				checkStored(t, "live miss", miss, c, false)
				checkStored(t, "live hit", hit, c, true)
			}
			for _, c := range f.cases {
				checkStored(t, "live dedup", dedupBody(t, f, c), c, false)
			}

			// Restored and installed entries answer every form as a hit.
			seed := New(Config{})
			tsSeed := httptest.NewServer(seed.Handler())
			rawPost(t, tsSeed.URL+"/analyze", f.cases[0].body)
			tsSeed.Close()
			restored := New(Config{})
			if n, _ := restored.ImportCheckpoint(roundTripCheckpoint(t, seed)); n != 1 {
				t.Fatalf("restored %d entries, want 1", n)
			}
			lang := tc.lang
			if lang == "" {
				lang = "minipl"
			}
			snap, err := store.BuildEntry(f.a, f.key, lang, f.notes, f.conf)
			if err != nil {
				t.Fatal(err)
			}
			installed := New(Config{})
			if err := installed.InstallSnapshot(snap); err != nil {
				t.Fatal(err)
			}
			for _, b := range []struct {
				label string
				srv   *Server
			}{{"restored", restored}, {"installed", installed}} {
				ts := httptest.NewServer(b.srv.Handler())
				for _, c := range f.cases {
					_, got := rawPost(t, ts.URL+c.path, c.body)
					checkStored(t, b.label, got, c, true)
				}
				ts.Close()
			}
		})
	}
}

// TestBatchStoredReportsMatchEncoder pins /batch, which embeds each
// entry's stored report, to the encoder's bytes for the report structs:
// fresh entries, repeats within the batch, and entries already cached.
func TestBatchStoredReportsMatchEncoder(t *testing.T) {
	other := workload.Emit(workload.Random(workload.DefaultConfig(12, 3)))
	srcs := []string{srvSrc, other, srvSrc, "program broken;"}
	ref := func(cachedAll bool) []byte {
		out := make([]refBatchEntry, len(srcs))
		for i, src := range srcs {
			out[i] = refBatchEntry{Hash: cache.Key(src), Cached: cachedAll}
			res := sideeffect.AnalyzeAllContext(context.Background(), []string{src}, sideeffect.Options{})[0]
			if res.Err != nil {
				out[i].Cached, out[i].Error = false, res.Err.Error()
				continue
			}
			a := res.Analysis
			out[i].Report = a.JSONReport()
		}
		return encodeRef(t, map[string][]refBatchEntry{"results": out})
	}
	ts := newTestServer(t, Config{})
	_, first := rawPost(t, ts.URL+"/batch", batchRequest{Sources: srcs})
	if want := ref(false); !bytes.Equal(first, want) {
		t.Errorf("fresh batch differs from the encoder's:\n got: %.400s\nwant: %.400s", first, want)
	}
	_, again := rawPost(t, ts.URL+"/batch", batchRequest{Sources: srcs})
	if want := ref(true); !bytes.Equal(again, want) {
		t.Errorf("cached batch differs from the encoder's:\n got: %.400s\nwant: %.400s", again, want)
	}
}

// TestStoredBodyTamperRecomputes changes one byte of a live entry's
// stored body behind the cache's back: the validation hook must evict
// the entry, and the request must be answered by a recompute (a miss),
// never from the damaged bytes.
func TestStoredBodyTamperRecomputes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		path   string
		body   any
		stored func(e *cached) []byte
	}{
		{"analyze", "/analyze", analyzeRequest{Source: srvSrc}, func(e *cached) []byte { return e.full }},
		{"lint", "/lint", lintRequest{Source: srvSrc}, func(e *cached) []byte { return e.lint.v.Load().body }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := New(Config{})
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			_, miss := rawPost(t, ts.URL+tc.path, tc.body)
			kv := srv.cache.Snapshot()
			if len(kv) != 1 {
				t.Fatalf("%d cache entries, want 1", len(kv))
			}
			// The integrity fold samples every 64th byte of a body.
			tc.stored(kv[0].Val)[64] ^= 0x20

			_, got := rawPost(t, ts.URL+tc.path, tc.body)
			var resp struct {
				Cached bool `json:"cached"`
			}
			if err := json.Unmarshal(got, &resp); err != nil {
				t.Fatalf("response after tampering does not decode: %v\n%s", err, got)
			}
			if resp.Cached {
				t.Error("tampered entry served as a cache hit")
			}
			if !bytes.Equal(got, miss) {
				t.Errorf("recomputed body differs from the first miss:\n got: %.400s\nwant: %.400s", got, miss)
			}
			if n := metricValue(t, ts.URL, "modand_cache_corruptions_total"); n != 1 {
				t.Errorf("modand_cache_corruptions_total = %v, want 1", n)
			}
		})
	}
}

// TestConcurrentFirstRequestsRenderOnce sends a fresh source's first
// requests from several goroutines while a checkpoint export reads the
// cache: every body must match what a sequential server returns for
// the same outcome, and the lint engine must run once.
func TestConcurrentFirstRequestsRenderOnce(t *testing.T) {
	src := workload.Emit(workload.Random(workload.DefaultConfig(24, 11)))
	reqs := []struct {
		path string
		body any
	}{
		{"/analyze", analyzeRequest{Source: src}},
		{"/lint", lintRequest{Source: src}},
		{"/analyze", analyzeRequest{Source: src, Query: &analyzeQuery{Kind: "gmod", Proc: "p0"}}},
	}
	// want[i][hit] is a sequential server's body for request i as the
	// request that builds the entry (a miss, or a dedup joining one),
	// and as a hit.
	want := make([]map[bool][]byte, len(reqs))
	for i, rq := range reqs {
		seq := httptest.NewServer(New(Config{}).Handler())
		want[i] = map[bool][]byte{}
		for _, hit := range []bool{false, true} {
			code, body := rawPost(t, seq.URL+rq.path, rq.body)
			if code != http.StatusOK {
				t.Fatalf("sequential request %d: status %d: %s", i, code, body)
			}
			want[i][hit] = body
		}
		seq.Close()
	}

	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	stop, exported := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exported)
		for {
			select {
			case <-stop:
				return
			default:
				srv.ExportCheckpoint()
			}
		}
	}()
	const clients = 8
	type reply struct {
		req  int
		code int
		body []byte
		err  error
	}
	replies := make(chan reply, clients*len(reqs))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := range reqs {
				i := (c + k) % len(reqs)
				code, body, err := postBytes(ts.URL+reqs[i].path, reqs[i].body)
				replies <- reply{i, code, body, err}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	<-exported
	close(replies)

	for r := range replies {
		if r.err != nil || r.code != http.StatusOK {
			t.Errorf("request %d: status %d, err %v: %.200s", r.req, r.code, r.err, r.body)
			continue
		}
		var env struct {
			Cached bool `json:"cached"`
		}
		if err := json.Unmarshal(r.body, &env); err != nil {
			t.Errorf("request %d: %v", r.req, err)
			continue
		}
		if ref := want[r.req][env.Cached]; !bytes.Equal(r.body, ref) {
			t.Errorf("request %d (cached %v): body differs from the sequential server's:\n got: %.300s\nwant: %.300s",
				r.req, env.Cached, r.body, ref)
		}
	}
	if n := metricValue(t, ts.URL, "modand_lint_runs_total"); n != 1 {
		t.Errorf("modand_lint_runs_total = %v, want 1", n)
	}
}

// TestLintRunFailureNotKept pins the errors-are-never-cached rule inside
// an entry: a first /lint whose request is already cancelled fails with
// a timeout and keeps nothing, so the next request runs the engine and
// its answer is kept.
func TestLintRunFailureNotKept(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	rawPost(t, ts.URL+"/analyze", analyzeRequest{Source: lintSrc})
	e := cachedEntry(t, srv, cache.Key(lintSrc))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, apiErr := srv.entryLint(ctx, e); apiErr == nil || apiErr.Code != "timeout" {
		t.Fatalf("cancelled first lint: %v, want a timeout", apiErr)
	}
	if e.lint.v.Load() != nil {
		t.Fatal("a cancelled lint run was kept")
	}
	if code, body := rawPost(t, ts.URL+"/lint", lintRequest{Source: lintSrc}); code != http.StatusOK {
		t.Fatalf("lint after a cancelled run: status %d: %s", code, body)
	}
	if e.lint.v.Load() == nil {
		t.Error("a successful lint run was not kept")
	}
	if n := metricValue(t, ts.URL, "modand_lint_runs_total"); n != 1 {
		t.Errorf("modand_lint_runs_total = %v, want 1", n)
	}
}

// TestLazyWaitersAndFailures drives lazy directly: waiters block on the
// fill in flight and give up with their own context, a failed or
// panicking fill keeps nothing and releases its waiters, and a
// successful fill is kept for every later caller.
func TestLazyWaitersAndFailures(t *testing.T) {
	var l lazy[int]
	fail := errors.New("fill failed")
	if _, err := l.get(context.Background(), func() (*int, error) { return nil, fail }); err != fail {
		t.Fatalf("failed fill: err %v", err)
	}
	func() {
		defer func() { _ = recover() }()
		_, _ = l.get(context.Background(), func() (*int, error) { panic("fill panicked") })
	}()
	if l.v.Load() != nil || l.busy != nil {
		t.Fatal("a failed or panicking fill left state behind")
	}

	release := make(chan struct{})
	leader := make(chan *int, 1)
	go func() {
		v, _ := l.get(context.Background(), func() (*int, error) {
			<-release
			n := 7
			return &n, nil
		})
		leader <- v
	}()
	waitFor(t, "the fill in flight", func() bool {
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.busy != nil
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := l.get(ctx, func() (*int, error) { t.Error("second fill ran"); return nil, nil }); err != context.Canceled {
		t.Errorf("cancelled waiter: err %v, want context.Canceled", err)
	}
	close(release)
	if v := <-leader; v == nil || *v != 7 {
		t.Fatalf("leader got %v", v)
	}
	v, err := l.get(context.Background(), func() (*int, error) { t.Error("fill ran after a kept value"); return nil, nil })
	if err != nil || *v != 7 {
		t.Errorf("kept value: %v, %v", v, err)
	}
}
