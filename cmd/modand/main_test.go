package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

const daemonSrc = `
program d;
global g;

proc p(ref x)
begin
  x := 1
end;

begin
  call p(g)
end.
`

// syncBuffer is a bytes.Buffer safe for concurrent use: run writes
// its log from several goroutines (the watcher logs from its own).
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startDaemon runs the daemon on an ephemeral port and returns its
// base URL, a shutdown trigger, the exit-code channel, and its log.
func startDaemon(t *testing.T, extra ...string) (string, chan struct{}, chan int, *syncBuffer) {
	t.Helper()
	ready := make(chan string, 1)
	shutdown := make(chan struct{})
	exit := make(chan int, 1)
	out := &syncBuffer{}
	args := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	go func() { exit <- run(args, out, out, ready, shutdown) }()
	select {
	case addr := <-ready:
		return "http://" + addr, shutdown, exit, out
	case code := <-exit:
		t.Fatalf("daemon exited early with %d: %s", code, out.String())
		return "", nil, nil, nil
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not come up")
		return "", nil, nil, nil
	}
}

func TestDaemonServesAndDrains(t *testing.T) {
	base, shutdown, exit, out := startDaemon(t)

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}

	body, err := json.Marshal(map[string]string{"source": daemonSrc})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(base+"/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var analyzed struct {
		Hash   string          `json:"hash"`
		Report json.RawMessage `json:"report"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&analyzed); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if analyzed.Hash == "" || len(analyzed.Report) == 0 {
		t.Fatalf("incomplete analyze response: %+v", analyzed)
	}

	close(shutdown)
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit code %d: %s", code, out.String())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not drain")
	}
	if !strings.Contains(out.String(), "bye") {
		t.Errorf("missing shutdown log: %s", out.String())
	}
}

func TestDaemonFlagErrors(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-nosuch"}, &out, &out, nil, nil); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
	out.Reset()
	if code := run([]string{"stray-arg"}, &out, &out, nil, nil); code != 2 {
		t.Errorf("stray arg: exit %d, want 2", code)
	}
	out.Reset()
	// A busy port fails fast.
	base, shutdown, exit, _ := startDaemon(t)
	addr := strings.TrimPrefix(base, "http://")
	if code := run([]string{"-addr", addr}, &out, &out, nil, nil); code != 1 {
		t.Errorf("busy port: exit %d, want 1", code)
	}
	close(shutdown)
	<-exit
}

// TestDaemonChaosFlags brings the daemon up with fault injection armed
// and asserts the chaos banner prints and every response to a small
// request burst is either a success or a structured error — the
// process itself never dies.
func TestDaemonChaosFlags(t *testing.T) {
	base, shutdown, exit, out := startDaemon(t, "-fault-rate", "0.5", "-fault-seed", "1")

	body, _ := json.Marshal(map[string]string{"source": daemonSrc})
	for i := 0; i < 8; i++ {
		resp, err := http.Post(base+"/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("request %d: transport error %v (daemon died?)", i, err)
		}
		var probe struct {
			Error *struct {
				Code string `json:"code"`
			} `json:"error"`
			Hash string `json:"hash"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&probe); err != nil {
			t.Fatalf("request %d: unparseable body: %v", i, err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			if probe.Hash == "" {
				t.Errorf("request %d: 200 without a hash", i)
			}
		} else if probe.Error == nil || probe.Error.Code == "" {
			t.Errorf("request %d: status %d without a structured error", i, resp.StatusCode)
		}
	}

	close(shutdown)
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit code %d: %s", code, out.String())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not drain")
	}
	if !strings.Contains(out.String(), "CHAOS MODE") {
		t.Errorf("missing chaos banner: %s", out.String())
	}
}
