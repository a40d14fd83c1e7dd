package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// lintSrc trips several rules: relic is a dead global, and the chain
// main → mid → leaf writes g without anyone ever reading it.
const lintSrc = `
program lintme;
global g, h, relic;

proc leaf(ref x)
begin
  x := h
end;

begin
  h := 1;
  call leaf(g)
end.
`

func TestLintEndpoint(t *testing.T) {
	ts := newTestServer(t, Config{})

	var resp lintResponse
	if code := post(t, ts.URL+"/lint", map[string]any{"source": lintSrc}, &resp); code != http.StatusOK {
		t.Fatalf("POST /lint: %d", code)
	}
	if resp.Cached {
		t.Error("first lint claims a cache hit")
	}
	if resp.Findings == 0 || len(resp.Diagnostics) != resp.Findings {
		t.Fatalf("findings %d, diagnostics %d", resp.Findings, len(resp.Diagnostics))
	}
	var rules []string
	for _, d := range resp.Diagnostics {
		rules = append(rules, d.Rule)
	}
	want := []string{"SE004", "SE005"}
	if !reflect.DeepEqual(rules, want) {
		t.Errorf("rules fired: %v, want %v", rules, want)
	}
	if resp.Counts["SE004"] != 1 || resp.Counts["SE001"] != 0 {
		t.Errorf("counts: %v", resp.Counts)
	}

	// The same source again is served from the analysis cache.
	var resp2 lintResponse
	post(t, ts.URL+"/lint", map[string]any{"source": lintSrc}, &resp2)
	if !resp2.Cached || resp2.Hash != resp.Hash {
		t.Errorf("repeat lint not cached: %+v", resp2)
	}

	// SARIF rendering rides along when asked for.
	var withSarif lintResponse
	post(t, ts.URL+"/lint", map[string]any{"source": lintSrc, "format": "sarif"}, &withSarif)
	var doc struct {
		Version string `json:"version"`
	}
	if err := json.Unmarshal([]byte(withSarif.Rendered), &doc); err != nil || doc.Version != "2.1.0" {
		t.Errorf("rendered SARIF invalid (err %v, version %q)", err, doc.Version)
	}

	// Rule selection narrows the run.
	var narrowed lintResponse
	post(t, ts.URL+"/lint", map[string]any{"source": lintSrc, "rules": []string{"dead-global"}}, &narrowed)
	if narrowed.Findings != 1 || narrowed.Diagnostics[0].Rule != "SE004" {
		t.Errorf("narrowed: %+v", narrowed)
	}

	// Error paths: each returns the structured envelope.
	cases := []struct {
		body map[string]any
		code int
	}{
		{map[string]any{}, http.StatusBadRequest},
		{map[string]any{"source": lintSrc, "rules": []string{"SE999"}}, http.StatusBadRequest},
		{map[string]any{"source": lintSrc, "minSeverity": "loud"}, http.StatusBadRequest},
		{map[string]any{"source": lintSrc, "format": "xml"}, http.StatusBadRequest},
		{map[string]any{"source": "program broken; begin g := end."}, http.StatusUnprocessableEntity},
	}
	for i, tc := range cases {
		var eb errorBody
		if code := post(t, ts.URL+"/lint", tc.body, &eb); code != tc.code {
			t.Errorf("case %d: status %d, want %d", i, code, tc.code)
		} else if eb.Error.Message == "" {
			t.Errorf("case %d: empty error message", i)
		}
	}
}

func TestSessionLintAndMetrics(t *testing.T) {
	ts := newTestServer(t, Config{})

	var st sessionState
	if code := post(t, ts.URL+"/session", map[string]string{"source": lintSrc}, &st); code != http.StatusCreated {
		t.Fatalf("session create: %d", code)
	}
	var resp lintResponse
	if code := post(t, ts.URL+"/session/"+st.ID+"/lint", map[string]any{}, &resp); code != http.StatusOK {
		t.Fatalf("session lint: %d", code)
	}
	if resp.Counts["SE004"] != 1 {
		t.Errorf("session lint counts: %v", resp.Counts)
	}
	if resp.Hash != "" || resp.Cached {
		t.Errorf("session lint should not carry cache fields: %+v", resp)
	}

	// Edit the dead global away; the next lint sees the new state.
	edited := strings.Replace(lintSrc, "global g, h, relic;", "global g, h;", 1)
	if code := post(t, ts.URL+"/session/"+st.ID+"/edit", map[string]string{"source": edited}, &st); code != http.StatusOK {
		t.Fatalf("session edit: %d", code)
	}
	post(t, ts.URL+"/session/"+st.ID+"/lint", map[string]any{}, &resp)
	if resp.Counts["SE004"] != 0 {
		t.Errorf("SE004 should clear after the edit: %v", resp.Counts)
	}

	// Missing session is a 404.
	var eb errorBody
	if code := post(t, ts.URL+"/session/nope/lint", map[string]any{}, &eb); code != http.StatusNotFound {
		t.Errorf("missing session: %d", code)
	}

	// The metrics exposition carries the lint counters.
	res, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	body, _ := io.ReadAll(res.Body)
	text := string(body)
	for _, needle := range []string{
		"modand_lint_runs_total 2",
		`modand_lint_findings_total{rule="SE004"} 1`,
		`modand_lint_findings_total{rule="SE001"} 0`,
	} {
		if !strings.Contains(text, needle) {
			t.Errorf("metrics missing %q", needle)
		}
	}
}

// TestLintRunsCountEngineRuns pins modand_lint_runs_total to engine
// runs: two identical /lint requests and a filtered third run the
// engine once, and a restored entry answers /lint without running it.
func TestLintRunsCountEngineRuns(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	rawPost(t, ts.URL+"/lint", lintRequest{Source: lintSrc})
	rawPost(t, ts.URL+"/lint", lintRequest{Source: lintSrc})
	if n := metricValue(t, ts.URL, "modand_lint_runs_total"); n != 1 {
		t.Errorf("after two identical /lint: modand_lint_runs_total = %v, want 1", n)
	}
	if n := metricValue(t, ts.URL, `modand_lint_findings_total{rule="SE004"}`); n != 1 {
		t.Errorf("after two identical /lint: SE004 findings = %v, want 1 (one run)", n)
	}
	rawPost(t, ts.URL+"/lint", lintRequest{Source: lintSrc, Rules: []string{"SE004"}, Format: "sarif"})
	if n := metricValue(t, ts.URL, "modand_lint_runs_total"); n != 1 {
		t.Errorf("after a filtered /lint: modand_lint_runs_total = %v, want 1", n)
	}

	warm := New(Config{})
	if n, _ := warm.ImportCheckpoint(roundTripCheckpoint(t, srv)); n != 1 {
		t.Fatalf("restored %d entries, want 1", n)
	}
	tsWarm := httptest.NewServer(warm.Handler())
	defer tsWarm.Close()
	if code, body := rawPost(t, tsWarm.URL+"/lint", lintRequest{Source: lintSrc}); code != http.StatusOK {
		t.Fatalf("restored /lint: status %d: %s", code, body)
	}
	if n := metricValue(t, tsWarm.URL, "modand_lint_runs_total"); n != 0 {
		t.Errorf("restored /lint: modand_lint_runs_total = %v, want 0", n)
	}
}
