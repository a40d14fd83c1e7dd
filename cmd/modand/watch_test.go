package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// waitHTTP polls cond (given the decoded JSON of a GET) until it holds.
func waitHTTP(t *testing.T, url string, cond func(map[string]any) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err == nil {
			var body map[string]any
			dec := json.NewDecoder(resp.Body)
			if dec.Decode(&body) == nil && cond(body) {
				resp.Body.Close()
				return
			}
			resp.Body.Close()
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting on %s", url)
}

func analyzeRaw(t *testing.T, base, src string) (int, []byte) {
	t.Helper()
	body, _ := json.Marshal(map[string]string{"source": src})
	resp, err := http.Post(base+"/analyze", "application/json", bytes.NewReader(body))
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

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return string(data)
}

func stopDaemon(t *testing.T, shutdown chan struct{}, exit chan int, out *syncBuffer) {
	t.Helper()
	close(shutdown)
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit code %d: %s", code, out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not drain")
	}
}

// TestDaemonWatchWarmRestart is the end-to-end acceptance path: a
// watch-mode daemon indexes a tree, serves /analyze for its files as
// cache hits, flushes a checkpoint on shutdown (logging size and
// duration), and after a restart answers its first query for the
// unchanged source byte-identically from the persisted store — warm
// hit counted, no analysis stage timers fired.
func TestDaemonWatchWarmRestart(t *testing.T) {
	watchDir := t.TempDir()
	stateDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(watchDir, "prog.mpl"), []byte(daemonSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	flags := []string{
		"-watch", watchDir, "-state-dir", stateDir,
		"-poll", "5ms", "-debounce", "20ms", "-checkpoint", "1h",
	}
	base, shutdown, exit, out := startDaemon(t, flags...)

	waitHTTP(t, base+"/index/status", func(m map[string]any) bool {
		n, _ := m["analyses"].(float64)
		return n >= 1
	})
	status, want := analyzeRaw(t, base, daemonSrc)
	if status != http.StatusOK {
		t.Fatalf("analyze on watch daemon: status %d: %s", status, want)
	}
	if !strings.Contains(string(want), `"cached": true`) {
		t.Fatalf("first /analyze of an indexed file was not a cache hit: %s", want)
	}
	if hits := getBody(t, base+"/metrics"); !strings.Contains(hits, "modand_warm_hits_total 1") {
		t.Fatalf("warm hit not counted on watch daemon:\n%s", hits)
	}
	stopDaemon(t, shutdown, exit, out)
	if !strings.Contains(out.String(), "modand: checkpoint:") ||
		!strings.Contains(out.String(), "bytes in") {
		t.Fatalf("final checkpoint not logged with size/duration: %s", out.String())
	}

	// Restart over the same state: the first query must be served from
	// the persisted store, byte-identical.
	base2, shutdown2, exit2, out2 := startDaemon(t, flags...)
	status2, got := analyzeRaw(t, base2, daemonSrc)
	if status2 != http.StatusOK {
		t.Fatalf("analyze after restart: status %d", status2)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("warm restart answer differs:\n warm: %s\n cold: %s", got, want)
	}
	metrics := getBody(t, base2+"/metrics")
	if !strings.Contains(metrics, "modand_warm_hits_total 1") {
		t.Errorf("restarted daemon did not count a warm hit:\n%s", metrics)
	}
	if strings.Contains(metrics, "modand_stage_seconds_total{") {
		t.Error("restarted daemon ran analysis stages for an unchanged source")
	}
	if !strings.Contains(metrics, "modand_index_files 1") {
		t.Errorf("index metrics missing from /metrics:\n%s", metrics)
	}

	// The index survived too: the file is listed without re-analysis.
	waitHTTP(t, base2+"/index/status", func(m map[string]any) bool {
		files, _ := m["files"].(float64)
		analyses, _ := m["analyses"].(float64)
		return files == 1 && analyses == 0
	})

	// Deleting the file removes it from the table (no ghost results).
	if err := os.Remove(filepath.Join(watchDir, "prog.mpl")); err != nil {
		t.Fatal(err)
	}
	waitHTTP(t, base2+"/index/status", func(m map[string]any) bool {
		files, _ := m["files"].(float64)
		deletes, _ := m["deletes"].(float64)
		return files == 0 && deletes == 1
	})

	stopDaemon(t, shutdown2, exit2, out2)
	if !strings.Contains(out2.String(), "modand: state: restored") {
		t.Errorf("restart did not log the restore: %s", out2.String())
	}
	if !strings.Contains(out2.String(), "modand: index: primed") {
		t.Errorf("restart did not prime index state: %s", out2.String())
	}
}

// TestDaemonCorruptCheckpointColdStarts pins the degradation contract
// at daemon level: a damaged checkpoint means a clean cold start — the
// daemon comes up, logs the corruption, and serves correctly.
func TestDaemonCorruptCheckpointColdStarts(t *testing.T) {
	stateDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(stateDir, "checkpoint.bin"), []byte("garbage bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	base, shutdown, exit, out := startDaemon(t, "-state-dir", stateDir, "-checkpoint", "1h")

	status, data := analyzeRaw(t, base, daemonSrc)
	if status != http.StatusOK {
		t.Fatalf("analyze after corrupt checkpoint: status %d: %s", status, data)
	}
	if strings.Contains(string(data), `"cached": true`) {
		t.Error("cold start served a cache hit from a corrupt checkpoint")
	}
	stopDaemon(t, shutdown, exit, out)
	if !strings.Contains(out.String(), "starting cold") {
		t.Errorf("corruption not logged: %s", out.String())
	}
	// The shutdown flush replaced the corrupt file with a valid one.
	base2, shutdown2, exit2, out2 := startDaemon(t, "-state-dir", stateDir, "-checkpoint", "1h")
	_, warm := analyzeRaw(t, base2, daemonSrc)
	if !strings.Contains(string(warm), `"cached": true`) {
		t.Errorf("checkpoint written after corruption did not restore: %s", warm)
	}
	stopDaemon(t, shutdown2, exit2, out2)
}
