package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sideeffect/internal/store"
)

// rawPost sends a JSON body and returns the raw response bytes — the
// byte-identity tests compare wire output exactly, not decoded forms.
func rawPost(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// persistRequests is the request matrix the warm-restart tests replay:
// every /analyze query kind, /lint in every format and with filtering
// configurations, plus an error case (unknown procedure) whose message
// must also survive the restart unchanged.
func persistRequests(src, lang string) []struct {
	name string
	path string
	body any
} {
	proc := "leaf"
	if lang == "go" {
		proc = "Bump"
	}
	return []struct {
		name string
		path string
		body any
	}{
		{"report", "/analyze", analyzeRequest{Source: src, Lang: lang}},
		{"text", "/analyze", analyzeRequest{Source: src, Lang: lang, Query: &analyzeQuery{Kind: "report"}}},
		{"gmod", "/analyze", analyzeRequest{Source: src, Lang: lang, Query: &analyzeQuery{Kind: "gmod", Proc: proc}}},
		{"guse", "/analyze", analyzeRequest{Source: src, Lang: lang, Query: &analyzeQuery{Kind: "guse", Proc: proc}}},
		{"rmod", "/analyze", analyzeRequest{Source: src, Lang: lang, Query: &analyzeQuery{Kind: "rmod", Proc: proc}}},
		{"callsites", "/analyze", analyzeRequest{Source: src, Lang: lang, Query: &analyzeQuery{Kind: "callsites"}}},
		{"badproc", "/analyze", analyzeRequest{Source: src, Lang: lang, Query: &analyzeQuery{Kind: "gmod", Proc: "no-such-proc"}}},
		{"lint", "/lint", lintRequest{Source: src, Lang: lang}},
		{"lint-text", "/lint", lintRequest{Source: src, Lang: lang, Format: "text"}},
		{"lint-sarif", "/lint", lintRequest{Source: src, Lang: lang, Format: "sarif"}},
		{"lint-minsev", "/lint", lintRequest{Source: src, Lang: lang, MinSeverity: "warning"}},
		{"lint-enable", "/lint", lintRequest{Source: src, Lang: lang, Rules: []string{"SE002", "SE004"}}},
		{"lint-disable", "/lint", lintRequest{Source: src, Lang: lang, Disable: []string{"pure-procedure"}}},
	}
}

// roundTripCheckpoint exports srv's warm state through a real on-disk
// store and back, so the test covers the full persistence path (gob
// encode, checksum, decode), not just the in-memory structs.
func roundTripCheckpoint(t *testing.T, srv *Server) *store.Checkpoint {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	if _, err := st.Save(srv.ExportCheckpoint()); err != nil {
		t.Fatalf("Save: %v", err)
	}
	cp, err := st.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if cp == nil {
		t.Fatal("Load returned no checkpoint")
	}
	return cp
}

// testWarmRestart drives the core acceptance path for one frontend:
// a cold server answers the request matrix, its state checkpoints
// through disk into a fresh server, and the fresh server's *first*
// answers are byte-identical — with the warm-hit counter moving and
// no analysis stage timers firing.
func testWarmRestart(t *testing.T, src, lang string) {
	cold := New(Config{})
	tsA := httptest.NewServer(cold.Handler())
	defer tsA.Close()

	reqs := persistRequests(src, lang)
	want := make(map[string][]byte)
	wantStatus := make(map[string]int)
	for _, rq := range reqs {
		// First call computes; the second is the cache-hit rendering
		// (cached:true), which is the form a warm restart must replay.
		rawPost(t, tsA.URL+rq.path, rq.body)
		status, data := rawPost(t, tsA.URL+rq.path, rq.body)
		want[rq.name] = data
		wantStatus[rq.name] = status
	}

	cp := roundTripCheckpoint(t, cold)
	warm := New(Config{})
	entries, _ := warm.ImportCheckpoint(cp)
	if entries == 0 {
		t.Fatal("checkpoint restored no entries")
	}
	tsB := httptest.NewServer(warm.Handler())
	defer tsB.Close()

	for _, rq := range reqs {
		status, data := rawPost(t, tsB.URL+rq.path, rq.body)
		if status != wantStatus[rq.name] {
			t.Errorf("%s: warm status %d, cold status %d", rq.name, status, wantStatus[rq.name])
		}
		if !bytes.Equal(data, want[rq.name]) {
			t.Errorf("%s: warm response differs from cold:\n warm: %s\n cold: %s",
				rq.name, data, want[rq.name])
		}
	}

	if hits := metricValue(t, tsB.URL, "modand_warm_hits_total"); hits < float64(len(reqs)) {
		t.Errorf("modand_warm_hits_total = %v, want >= %d", hits, len(reqs))
	}
	if loaded := metricValue(t, tsB.URL, "modand_warm_entries"); loaded < 1 {
		t.Errorf("modand_warm_entries = %v, want >= 1", loaded)
	}
	// No analysis ran on the warm server: every answer came from the
	// snapshot, so the per-stage pipeline timers must have no samples.
	resp, err := http.Get(tsB.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	exposition, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.Contains(string(exposition), "modand_stage_seconds_total{") {
		t.Error("warm server recorded analysis stage time; expected none")
	}
	if misses := metricValue(t, tsB.URL, "modand_cache_misses_total"); misses != 0 {
		t.Errorf("warm server recorded %v cache misses, want 0", misses)
	}
}

func TestWarmRestartByteIdenticalMiniPL(t *testing.T) {
	testWarmRestart(t, srvSrc, "")
}

func TestWarmRestartByteIdenticalGo(t *testing.T) {
	testWarmRestart(t, goSrvSrc, "go")
}

// TestWarmRestartSessions pins that open sessions survive the restart:
// same id, same counters, same report — and that they stay editable.
func TestWarmRestartSessions(t *testing.T) {
	cold := New(Config{})
	tsA := httptest.NewServer(cold.Handler())
	defer tsA.Close()

	var created sessionState
	if code := post(t, tsA.URL+"/session", sessionCreateRequest{Source: srvSrc}, &created); code != http.StatusCreated {
		t.Fatalf("create session: status %d", code)
	}
	edited := strings.Replace(srvSrc, "x := h", "x := h;\n  x := g", 1)
	var afterEdit sessionState
	if code := post(t, tsA.URL+"/session/"+created.ID+"/edit", sessionEditRequest{Source: edited}, &afterEdit); code != http.StatusOK {
		t.Fatalf("edit session: status %d", code)
	}
	statusA, stateA := rawGet(t, tsA.URL+"/session/"+created.ID)

	cp := roundTripCheckpoint(t, cold)
	warm := New(Config{})
	_, sessions := warm.ImportCheckpoint(cp)
	if sessions != 1 {
		t.Fatalf("restored %d sessions, want 1", sessions)
	}
	tsB := httptest.NewServer(warm.Handler())
	defer tsB.Close()

	statusB, stateB := rawGet(t, tsB.URL+"/session/"+created.ID)
	if statusB != statusA {
		t.Fatalf("warm session get: status %d, cold %d", statusB, statusA)
	}
	if !bytes.Equal(stateB, stateA) {
		t.Errorf("restored session state differs:\n warm: %s\n cold: %s", stateB, stateA)
	}

	// A restored session must still absorb edits.
	further := strings.Replace(edited, "x := g", "x := g;\n  x := h", 1)
	var afterRestartEdit sessionState
	if code := post(t, tsB.URL+"/session/"+created.ID+"/edit", sessionEditRequest{Source: further}, &afterRestartEdit); code != http.StatusOK {
		t.Fatalf("edit restored session: status %d", code)
	}
	if afterRestartEdit.Edits != afterEdit.Edits+1 {
		t.Errorf("restored session edit count = %d, want %d", afterRestartEdit.Edits, afterEdit.Edits+1)
	}

	// New sessions on the restored server never collide with restored ids.
	var fresh sessionState
	if code := post(t, tsB.URL+"/session", sessionCreateRequest{Source: srvSrc}, &fresh); code != http.StatusCreated {
		t.Fatalf("create session after restore: status %d", code)
	}
	if fresh.ID == created.ID {
		t.Errorf("new session reused restored id %s", fresh.ID)
	}
}

func rawGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// TestWarmEntryCorruptionRecomputes pins the never-a-wrong-answer
// contract on the serving side: a restored entry damaged in memory —
// its text report or one byte of its JSON report — is rejected by the
// cache validator and recomputed, not served.
func TestWarmEntryCorruptionRecomputes(t *testing.T) {
	cold := New(Config{})
	tsA := httptest.NewServer(cold.Handler())
	rawPost(t, tsA.URL+"/analyze", analyzeRequest{Source: srvSrc})
	defer tsA.Close()

	for _, tc := range []struct {
		name   string
		damage func(snap *store.EntrySnapshot)
	}{
		{"text", func(snap *store.EntrySnapshot) { snap.Text += " TAMPERED" }},
		{"json-byte", func(snap *store.EntrySnapshot) { snap.JSON[0] ^= 0x01 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cp := roundTripCheckpoint(t, cold)
			warm := New(Config{})
			if n, _ := warm.ImportCheckpoint(cp); n != 1 {
				t.Fatalf("restored %d entries, want 1", n)
			}
			// Damage the restored snapshot behind the cache's back.
			tc.damage(cp.Entries[0])
			ts := httptest.NewServer(warm.Handler())
			defer ts.Close()

			var resp analyzeResponse
			if code := post(t, ts.URL+"/analyze", analyzeRequest{Source: srvSrc}, &resp); code != http.StatusOK {
				t.Fatalf("analyze after corruption: status %d", code)
			}
			if resp.Cached {
				t.Error("corrupted warm entry served as a cache hit")
			}
			if got := metricValue(t, ts.URL, "modand_cache_corruptions_total"); got != 1 {
				t.Errorf("modand_cache_corruptions_total = %v, want 1", got)
			}
		})
	}
}

// TestInstallSnapshotServesWarm covers the indexer's publish hook
// directly: an installed snapshot serves the first /analyze for that
// content as a warm hit.
func TestInstallSnapshotServesWarm(t *testing.T) {
	cold := New(Config{})
	tsA := httptest.NewServer(cold.Handler())
	rawPost(t, tsA.URL+"/analyze", analyzeRequest{Source: srvSrc})
	_, want := rawPost(t, tsA.URL+"/analyze", analyzeRequest{Source: srvSrc})
	cp := roundTripCheckpoint(t, cold)
	tsA.Close()

	srv := New(Config{})
	if err := srv.InstallSnapshot(cp.Entries[0]); err != nil {
		t.Fatalf("InstallSnapshot: %v", err)
	}
	if !srv.HasEntry(cp.Entries[0].Key) {
		t.Error("HasEntry false after install")
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	_, got := rawPost(t, ts.URL+"/analyze", analyzeRequest{Source: srvSrc})
	if !bytes.Equal(got, want) {
		t.Errorf("installed snapshot serves differently:\n got: %s\nwant: %s", got, want)
	}
	if hits := metricValue(t, ts.URL, "modand_warm_hits_total"); hits != 1 {
		t.Errorf("modand_warm_hits_total = %v, want 1", hits)
	}
}
