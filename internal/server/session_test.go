package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSessionEditCancelledKeepsSession: an additive edit whose request
// context is already done (the client has gone) answers 503 timeout
// and leaves the session as it was. The next GET serves the pre-edit
// report, and the next edit is absorbed incrementally.
func TestSessionEditCancelledKeepsSession(t *testing.T) {
	srv := New(Config{})
	ts := newHTTPServer(t, srv)
	var created sessionState
	if code := post(t, ts.URL+"/session", sessionCreateRequest{Source: srvSrc}, &created); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	url := ts.URL + "/session/" + created.ID
	add := strings.Replace(srvSrc, "x := h", "x := h; h := 1", 1)
	body, err := json.Marshal(sessionEditRequest{Source: add})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/session/"+created.ID+"/edit", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	var e errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusServiceUnavailable || e.Error.Code != "timeout" {
		t.Fatalf("cancelled edit: status %d, code %q; want 503 timeout", rec.Code, e.Error.Code)
	}

	var got sessionState
	if code := request(t, http.MethodGet, url, nil, &got); code != http.StatusOK {
		t.Fatalf("get after the cancelled edit: status %d", code)
	}
	gotJSON, _ := json.Marshal(got.Report)
	wantJSON, _ := json.Marshal(created.Report)
	if got.Hash != created.Hash || got.Edits != 0 || !bytes.Equal(gotJSON, wantJSON) {
		t.Fatal("the cancelled edit changed the session")
	}
	var edited sessionState
	if code := post(t, url+"/edit", sessionEditRequest{Source: add}, &edited); code != http.StatusOK {
		t.Fatalf("edit after the cancelled one: status %d", code)
	}
	if edited.Mode != "incremental" || edited.Edits != 1 {
		t.Fatalf("edit after the cancelled one: mode %q, %d edits", edited.Mode, edited.Edits)
	}
}

// TestSessionWaitEndsAtDeadline: a request queued behind a session's
// lock stops waiting at its own deadline and answers 503 timeout
// instead of waiting for the lock. The lock is released after 2 s at
// the latest, so a wait that ignores the deadline fails the test
// rather than hanging it.
func TestSessionWaitEndsAtDeadline(t *testing.T) {
	srv := New(Config{Timeout: 50 * time.Millisecond})
	ts := newHTTPServer(t, srv)
	var created sessionState
	if code := post(t, ts.URL+"/session", sessionCreateRequest{Source: srvSrc}, &created); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	url := ts.URL + "/session/" + created.ID
	open, ok := srv.sessions.get(created.ID)
	if !ok {
		t.Fatal("created session is not in the table")
	}
	add := strings.Replace(srvSrc, "x := h", "x := h; h := 1", 1)
	requests := []struct {
		name, method, url string
		body              any
	}{
		{"get", http.MethodGet, url, nil},
		{"edit", http.MethodPost, url + "/edit", sessionEditRequest{Source: add}},
		{"lint", http.MethodPost, url + "/lint", sessionLintRequest{}},
	}
	for _, rq := range requests {
		open.lock(context.Background())
		var once sync.Once
		release := func() { once.Do(open.unlock) }
		timer := time.AfterFunc(2*time.Second, release)
		start := time.Now()
		var e errorBody
		code := request(t, rq.method, rq.url, rq.body, &e)
		elapsed := time.Since(start)
		release()
		timer.Stop()
		if code != http.StatusServiceUnavailable || e.Error.Code != "timeout" {
			t.Errorf("%s behind a held lock: status %d, code %q; want 503 timeout", rq.name, code, e.Error.Code)
		}
		if elapsed > 150*time.Millisecond {
			t.Errorf("%s behind a held lock answered after %v, want within 150ms", rq.name, elapsed)
		}
	}
	// The timed-out waits took nothing: the session answers again.
	var got sessionState
	if code := request(t, http.MethodGet, url, nil, &got); code != http.StatusOK || got.Edits != 0 {
		t.Fatalf("get after the timed-out waits: status %d, %d edits", code, got.Edits)
	}
}
