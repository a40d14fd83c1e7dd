package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sideeffect"
	"sideeffect/internal/report"
	"sideeffect/internal/workload"
)

const srvSrc = `
program srv;
global g, h;

proc leaf(ref x)
begin
  x := h
end;

proc mid(ref y)
begin
  call leaf(y)
end;

begin
  call mid(g)
end.
`

func newTestServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(cfg).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// post sends a JSON body and decodes the JSON response into out.
func post(t *testing.T, url string, body any, out any) int {
	t.Helper()
	return request(t, http.MethodPost, url, body, out)
}

func request(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// errorBody is the structured error envelope.
type errorBody struct {
	Error apiError `json:"error"`
}

// metricValue scrapes one sample from the /metrics exposition.
func metricValue(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		fields := strings.Fields(line)
		var v float64
		if _, err := fmt.Sscanf(fields[len(fields)-1], "%g", &v); err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		return v
	}
	t.Fatalf("metric %s not found", name)
	return 0
}

// TestAnalyzeCachedRepeat is the acceptance check: repeated /analyze of
// an identical source is served from the cache, and the hit counter is
// observable through the metrics endpoint.
func TestAnalyzeCachedRepeat(t *testing.T) {
	ts := newTestServer(t, Config{})
	var first, second analyzeResponse
	if code := post(t, ts.URL+"/analyze", analyzeRequest{Source: srvSrc}, &first); code != http.StatusOK {
		t.Fatalf("first analyze: status %d", code)
	}
	if first.Cached {
		t.Error("first request claims to be cached")
	}
	if first.Report == nil {
		t.Fatal("no report in response")
	}
	if code := post(t, ts.URL+"/analyze", analyzeRequest{Source: srvSrc}, &second); code != http.StatusOK {
		t.Fatalf("second analyze: status %d", code)
	}
	if !second.Cached {
		t.Error("identical source not served from cache")
	}
	if first.Hash != second.Hash {
		t.Errorf("hashes differ: %s vs %s", first.Hash, second.Hash)
	}
	a, err := json.Marshal(first.Report)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(second.Report)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("cached report differs from computed report")
	}
	if hits := metricValue(t, ts.URL, "modand_cache_hits_total"); hits < 1 {
		t.Errorf("modand_cache_hits_total = %g, want >= 1", hits)
	}
	if misses := metricValue(t, ts.URL, "modand_cache_misses_total"); misses < 1 {
		t.Errorf("modand_cache_misses_total = %g, want >= 1", misses)
	}
}

func TestAnalyzeQueries(t *testing.T) {
	ts := newTestServer(t, Config{})
	cases := []struct {
		query analyzeQuery
		check func(t *testing.T, r analyzeResponse)
	}{
		{analyzeQuery{Kind: "gmod", Proc: "leaf"}, func(t *testing.T, r analyzeResponse) {
			if len(r.Names) == 0 {
				t.Error("empty GMOD(leaf)")
			}
		}},
		{analyzeQuery{Kind: "rmod", Proc: "mid"}, func(t *testing.T, r analyzeResponse) {
			if len(r.Names) == 0 {
				t.Error("empty RMOD(mid)")
			}
		}},
		{analyzeQuery{Kind: "guse", Proc: "$main"}, func(t *testing.T, r analyzeResponse) {
			if !contains(r.Names, "h") {
				t.Errorf("GUSE($main) = %v, missing h", r.Names)
			}
		}},
		{analyzeQuery{Kind: "callsites"}, func(t *testing.T, r analyzeResponse) {
			if len(r.CallSites) != 2 {
				t.Errorf("%d call sites, want 2", len(r.CallSites))
			}
		}},
		{analyzeQuery{Kind: "report"}, func(t *testing.T, r analyzeResponse) {
			if !strings.Contains(r.Text, "GMOD") {
				t.Error("text report missing GMOD section")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.query.Kind, func(t *testing.T) {
			var resp analyzeResponse
			q := tc.query
			if code := post(t, ts.URL+"/analyze", analyzeRequest{Source: srvSrc, Query: &q}, &resp); code != http.StatusOK {
				t.Fatalf("status %d", code)
			}
			tc.check(t, resp)
		})
	}
}

func TestAnalyzeErrors(t *testing.T) {
	ts := newTestServer(t, Config{MaxRequestBytes: 512})
	t.Run("missing source", func(t *testing.T) {
		var e errorBody
		if code := post(t, ts.URL+"/analyze", analyzeRequest{}, &e); code != http.StatusBadRequest {
			t.Fatalf("status %d", code)
		}
		if e.Error.Code != "bad_request" {
			t.Errorf("code %q", e.Error.Code)
		}
	})
	t.Run("syntax error", func(t *testing.T) {
		var e errorBody
		if code := post(t, ts.URL+"/analyze", analyzeRequest{Source: "program broken;"}, &e); code != http.StatusUnprocessableEntity {
			t.Fatalf("status %d", code)
		}
		if e.Error.Code != "analysis_failed" {
			t.Errorf("code %q", e.Error.Code)
		}
	})
	t.Run("unknown query kind", func(t *testing.T) {
		var e errorBody
		q := analyzeQuery{Kind: "frobnicate"}
		if code := post(t, ts.URL+"/analyze", analyzeRequest{Source: srvSrc, Query: &q}, &e); code != http.StatusBadRequest {
			t.Fatalf("status %d", code)
		}
	})
	t.Run("unknown procedure", func(t *testing.T) {
		var e errorBody
		q := analyzeQuery{Kind: "gmod", Proc: "nosuch"}
		if code := post(t, ts.URL+"/analyze", analyzeRequest{Source: srvSrc, Query: &q}, &e); code != http.StatusBadRequest {
			t.Fatalf("status %d", code)
		}
	})
	t.Run("oversized body", func(t *testing.T) {
		var e errorBody
		big := analyzeRequest{Source: strings.Repeat("x", 4096)}
		if code := post(t, ts.URL+"/analyze", big, &e); code != http.StatusRequestEntityTooLarge {
			t.Fatalf("status %d", code)
		}
		if e.Error.Code != "too_large" {
			t.Errorf("code %q", e.Error.Code)
		}
	})
	t.Run("invalid json", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/analyze", "application/json", strings.NewReader("{not json"))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d", resp.StatusCode)
		}
	})
}

func TestAnalyzeTimeout(t *testing.T) {
	ts := newTestServer(t, Config{Timeout: time.Nanosecond})
	var e errorBody
	if code := post(t, ts.URL+"/analyze", analyzeRequest{Source: srvSrc}, &e); code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", code)
	}
	if e.Error.Code != "timeout" {
		t.Errorf("code %q", e.Error.Code)
	}
}

func TestBatch(t *testing.T) {
	ts := newTestServer(t, Config{})
	other := workload.Emit(workload.Random(workload.DefaultConfig(8, 1)).Prune())
	type batchResponse struct {
		Results []batchEntry `json:"results"`
	}
	var resp batchResponse
	req := batchRequest{Sources: []string{srvSrc, other, srvSrc, "program broken;"}}
	if code := post(t, ts.URL+"/batch", req, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(resp.Results) != 4 {
		t.Fatalf("%d results, want 4", len(resp.Results))
	}
	if resp.Results[0].Report == nil || resp.Results[1].Report == nil || resp.Results[2].Report == nil {
		t.Error("missing reports for valid sources")
	}
	if resp.Results[0].Hash != resp.Results[2].Hash {
		t.Error("identical sources got different hashes")
	}
	if resp.Results[3].Error == "" {
		t.Error("broken source produced no error")
	}
	// A second batch of the same sources is fully cache-served.
	var again batchResponse
	if code := post(t, ts.URL+"/batch", batchRequest{Sources: []string{srvSrc, other}}, &again); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	for i, e := range again.Results {
		if !e.Cached {
			t.Errorf("repeat batch entry %d not cached", i)
		}
	}
	// Limits.
	var e errorBody
	if code := post(t, ts.URL+"/batch", batchRequest{}, &e); code != http.StatusBadRequest {
		t.Errorf("empty batch: status %d", code)
	}
	small := newTestServer(t, Config{MaxBatchSources: 2})
	if code := post(t, small.URL+"/batch", batchRequest{Sources: []string{"a", "b", "c"}}, &e); code != http.StatusBadRequest {
		t.Errorf("over-limit batch: status %d", code)
	}
}

func TestSessionLifecycle(t *testing.T) {
	ts := newTestServer(t, Config{})
	var created sessionState
	if code := post(t, ts.URL+"/session", sessionCreateRequest{Source: srvSrc}, &created); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	if created.ID == "" || created.Report == nil {
		t.Fatalf("incomplete creation response: %+v", created)
	}
	if got := metricValue(t, ts.URL, "modand_sessions_open"); got != 1 {
		t.Errorf("modand_sessions_open = %g, want 1", got)
	}

	// An additive edit is absorbed incrementally.
	add := strings.Replace(srvSrc, "x := h", "x := h; h := 2", 1)
	var edited sessionState
	url := ts.URL + "/session/" + created.ID
	if code := post(t, url+"/edit", sessionEditRequest{Source: add}, &edited); code != http.StatusOK {
		t.Fatalf("edit: status %d", code)
	}
	if edited.Mode != "incremental" {
		t.Errorf("additive edit mode %q", edited.Mode)
	}
	if edited.Edits != 1 || edited.IncrementalEdits != 1 {
		t.Errorf("edit counters %+v", edited)
	}

	// The session's report matches /analyze of the same source.
	var fresh analyzeResponse
	if code := post(t, ts.URL+"/analyze", analyzeRequest{Source: add}, &fresh); code != http.StatusOK {
		t.Fatalf("analyze: status %d", code)
	}
	sessJSON, err := json.Marshal(edited.Report)
	if err != nil {
		t.Fatal(err)
	}
	freshJSON, err := json.Marshal(fresh.Report)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sessJSON, freshJSON) {
		t.Error("session report differs from /analyze of the same source")
	}
	if edited.Hash != fresh.Hash {
		t.Errorf("session hash %s, analyze hash %s", edited.Hash, fresh.Hash)
	}

	// A structural edit falls back to full reanalysis.
	full := strings.Replace(add, "call mid(g)", "call mid(g); call leaf(h)", 1)
	if code := post(t, url+"/edit", sessionEditRequest{Source: full}, &edited); code != http.StatusOK {
		t.Fatalf("edit: status %d", code)
	}
	if edited.Mode != "full" {
		t.Errorf("structural edit mode %q", edited.Mode)
	}
	if edited.Edits != 2 || edited.FullEdits != 1 {
		t.Errorf("edit counters %+v", edited)
	}
	if got := metricValue(t, ts.URL, `modand_session_edits_total{mode="incremental"}`); got != 1 {
		t.Errorf("incremental edit counter = %g, want 1", got)
	}
	if got := metricValue(t, ts.URL, `modand_session_edits_total{mode="full"}`); got != 1 {
		t.Errorf("full edit counter = %g, want 1", got)
	}

	// GET reflects the current state; a broken edit is rejected and
	// leaves it unchanged.
	var got sessionState
	if code := request(t, http.MethodGet, url, nil, &got); code != http.StatusOK {
		t.Fatalf("get: status %d", code)
	}
	if got.Edits != 2 {
		t.Errorf("get shows %d edits, want 2", got.Edits)
	}
	var e errorBody
	if code := post(t, url+"/edit", sessionEditRequest{Source: "program broken;"}, &e); code != http.StatusUnprocessableEntity {
		t.Fatalf("broken edit: status %d", code)
	}
	if code := request(t, http.MethodGet, url, nil, &got); code != http.StatusOK || got.Edits != 2 {
		t.Errorf("broken edit changed session state: %+v", got)
	}

	// Delete, then the id is gone.
	if code := request(t, http.MethodDelete, url, nil, nil); code != http.StatusOK {
		t.Fatalf("delete: status %d", code)
	}
	if code := request(t, http.MethodGet, url, nil, &e); code != http.StatusNotFound {
		t.Fatalf("get after delete: status %d", code)
	}
	if got := metricValue(t, ts.URL, "modand_sessions_open"); got != 0 {
		t.Errorf("modand_sessions_open = %g, want 0", got)
	}
}

// TestSessionHandleOutlivesDelete replays a read racing a DELETE of
// the same session, in the losing order: the read fetches the handle,
// the DELETE completes, and only then does the read go through the
// handle. It must still see the session's full analysis rather than
// fail with a 500.
func TestSessionHandleOutlivesDelete(t *testing.T) {
	srv := New(Config{})
	ts := newHTTPServer(t, srv)
	var created sessionState
	if code := post(t, ts.URL+"/session", sessionCreateRequest{Source: srvSrc}, &created); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	open, ok := srv.sessions.get(created.ID)
	if !ok {
		t.Fatal("created session is not in the table")
	}
	if code := request(t, http.MethodDelete, ts.URL+"/session/"+created.ID, nil, nil); code != http.StatusOK {
		t.Fatalf("delete: status %d", code)
	}

	var (
		mod []string
		err error
		got sessionState
	)
	func() {
		defer func() {
			if rec := recover(); rec != nil {
				t.Fatalf("read through a handle fetched before DELETE panicked: %v", rec)
			}
		}()
		open.mu.Lock()
		defer open.mu.Unlock()
		mod, err = open.sess.Analysis().MOD("mid")
		got = open.state("", true)
	}()
	if err != nil {
		t.Fatal(err)
	}
	want, err := sideeffect.Analyze(srvSrc)
	if err != nil {
		t.Fatal(err)
	}
	if wantMod, _ := want.MOD("mid"); strings.Join(mod, ",") != strings.Join(wantMod, ",") {
		t.Errorf("MOD(mid) after DELETE = %v, want %v", mod, wantMod)
	}
	gotJSON, _ := json.Marshal(got.Report)
	wantJSON, _ := json.Marshal(created.Report)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Error("report read after DELETE differs from the one at creation")
	}
}

func TestSessionLimit(t *testing.T) {
	ts := newTestServer(t, Config{MaxSessions: 2})
	var first sessionState
	for i := 0; i < 2; i++ {
		var st sessionState
		if code := post(t, ts.URL+"/session", sessionCreateRequest{Source: srvSrc}, &st); code != http.StatusCreated {
			t.Fatalf("create %d: status %d", i, code)
		}
		if i == 0 {
			first = st
		}
	}
	var e errorBody
	if code := post(t, ts.URL+"/session", sessionCreateRequest{Source: srvSrc}, &e); code != http.StatusTooManyRequests {
		t.Fatalf("over-limit create: status %d", code)
	}
	if e.Error.Code != "session_limit" {
		t.Errorf("code %q", e.Error.Code)
	}
	// Deleting one frees a slot.
	if code := request(t, http.MethodDelete, ts.URL+"/session/"+first.ID, nil, nil); code != http.StatusOK {
		t.Fatalf("delete: status %d", code)
	}
	var st sessionState
	if code := post(t, ts.URL+"/session", sessionCreateRequest{Source: srvSrc}, &st); code != http.StatusCreated {
		t.Fatalf("create after delete: status %d", code)
	}
}

// TestSessionDifferentialHTTP drives the acceptance differential
// through the HTTP surface: random additive edit sequences through a
// /session must match /analyze of the edited source byte for byte.
func TestSessionDifferentialHTTP(t *testing.T) {
	ts := newTestServer(t, Config{})
	steps := 6
	if testing.Short() {
		steps = 3
	}
	model := workload.Random(workload.DefaultConfig(16, 42)).Prune()
	src := workload.Emit(model)
	var sess sessionState
	if code := post(t, ts.URL+"/session", sessionCreateRequest{Source: src}, &sess); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	var pairs [][2]int
	for _, p := range model.Procs {
		for _, v := range model.Vars {
			if p.Visible(v) && v.Rank() == 0 {
				pairs = append(pairs, [2]int{p.ID, v.ID})
			}
		}
	}
	for step := 0; step < steps; step++ {
		pick := pairs[(step*7)%len(pairs)]
		p, v := model.Procs[pick[0]], model.Vars[pick[1]]
		if step%2 == 0 {
			p.IMOD.Add(v.ID)
		} else {
			p.IUSE.Add(v.ID)
		}
		newSrc := workload.Emit(model)
		var edited sessionState
		if code := post(t, ts.URL+"/session/"+sess.ID+"/edit", sessionEditRequest{Source: newSrc}, &edited); code != http.StatusOK {
			t.Fatalf("step %d: edit status %d", step, code)
		}
		if edited.Mode != "incremental" {
			t.Fatalf("step %d: additive edit took mode %q", step, edited.Mode)
		}
		fresh, err := sideeffect.Analyze(newSrc)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := report.JSON(fresh.Mod, fresh.Use, fresh.Aliases, fresh.SecMod)
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, err := json.Marshal(edited.Report)
		if err != nil {
			t.Fatal(err)
		}
		var want, got any
		if err := json.Unmarshal([]byte(wantJSON), &want); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(gotJSON, &got); err != nil {
			t.Fatal(err)
		}
		wantNorm, _ := json.Marshal(want)
		gotNorm, _ := json.Marshal(got)
		if !bytes.Equal(wantNorm, gotNorm) {
			t.Fatalf("step %d: session report diverged from fresh analysis", step)
		}
	}
}

// TestConcurrentAnalyzeSingleflight hammers one source from many
// goroutines; the server must answer all of them while computing the
// analysis far fewer times than it is asked.
func TestConcurrentAnalyzeSingleflight(t *testing.T) {
	ts := newTestServer(t, Config{})
	const n = 16
	var wg sync.WaitGroup
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var resp analyzeResponse
			codes[i] = post(t, ts.URL+"/analyze", analyzeRequest{Source: srvSrc}, &resp)
		}(i)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Errorf("request %d: status %d", i, code)
		}
	}
	// Exactly one miss: everything else hit the cache or collapsed
	// into the in-flight computation.
	if misses := metricValue(t, ts.URL, "modand_cache_misses_total"); misses != 1 {
		t.Errorf("modand_cache_misses_total = %g, want 1", misses)
	}
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

func TestHealthAndDebugEndpoints(t *testing.T) {
	ts := newTestServer(t, Config{})
	for _, path := range []string{"/healthz", "/metrics", "/debug/vars", "/debug/pprof/"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
	}
}
