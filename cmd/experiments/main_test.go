package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// captureStdout redirects os.Stdout while f runs and returns what was
// printed (the experiment functions print directly).
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		buf := make([]byte, 0, 1<<16)
		tmp := make([]byte, 4096)
		for {
			n, err := r.Read(tmp)
			buf = append(buf, tmp[:n]...)
			if err != nil {
				break
			}
		}
		done <- string(buf)
	}()
	f()
	w.Close()
	os.Stdout = old
	return <-done
}

func TestE3MeetTable(t *testing.T) {
	out := captureStdout(t, func() { expE3(true) })
	for _, want := range []string{"A(*, J)", "A(K, *)", "A(*, *)", "Hasse"} {
		if !strings.Contains(out, want) {
			t.Errorf("E3 output missing %q", want)
		}
	}
}

func TestE10Verdicts(t *testing.T) {
	out := captureStdout(t, func() { expE10(true) })
	if !strings.Contains(out, "PARALLELIZE") || !strings.Contains(out, "serialize") {
		t.Errorf("E10 verdicts missing:\n%s", out)
	}
	if !strings.Contains(out, "A(*, i)") {
		t.Errorf("E10 iteration-local section missing:\n%s", out)
	}
}

func TestE15LintOverhead(t *testing.T) {
	t.Chdir(t.TempDir()) // expE15 writes BENCH_lint.json to the cwd
	out := captureStdout(t, func() { expE15(true) })
	for _, want := range []string{"per-finding", "SE003", "BENCH_lint.json"} {
		if !strings.Contains(out, want) {
			t.Errorf("E15 output missing %q:\n%s", want, out)
		}
	}
	// Every row with alias hazards has a time for SE003 from the
	// profile of the sampled runs, every row with findings one for the
	// engine's order and render stages, and every row a query time.
	data, err := os.ReadFile("BENCH_lint.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ Records []lintBenchRecord }
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, r := range doc.Records {
		if r.Counts["SE003"] > 0 && r.SE003NsPerOp <= 0 {
			t.Errorf("row %q: %d SE003 findings but se003_ns_per_op = %d", r.Name, r.Counts["SE003"], r.SE003NsPerOp)
		}
		if r.Findings > 0 && (r.OrderNsPerOp <= 0 || r.RenderNsPerOp <= 0) {
			t.Errorf("row %q: %d findings but order_ns_per_op = %d, render_ns_per_op = %d", r.Name, r.Findings, r.OrderNsPerOp, r.RenderNsPerOp)
		}
		if r.QueriesNsPerOp <= 0 {
			t.Errorf("row %q: mod_queries_ns_per_op = %d", r.Name, r.QueriesNsPerOp)
		}
	}
}

// TestE14WritesEveryProfile: E14 is the one producer of
// BENCH_server.json, so a run replaces whatever the file held with its
// four profiles under the shared head.
func TestE14WritesEveryProfile(t *testing.T) {
	t.Chdir(t.TempDir()) // expE14 writes BENCH_server.json to the cwd
	foreign := `{"cores": 1, "records": [{"name": "ServerAnalyzeWarm", "requests": 1}]}`
	if err := os.WriteFile("BENCH_server.json", []byte(foreign), 0o644); err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() { expE14(true) })
	if !strings.Contains(out, "BENCH_server.json") {
		t.Errorf("E14 output does not name BENCH_server.json:\n%s", out)
	}
	data, err := os.ReadFile("BENCH_server.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		NumCPU  int             `json:"num_cpu"`
		Mem     json.RawMessage `json:"mem"`
		Records []serverBenchRecord
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.NumCPU <= 0 || len(doc.Mem) == 0 {
		t.Errorf("head lacks num_cpu or mem:\n%s", data)
	}
	var names []string
	for _, r := range doc.Records {
		names = append(names, r.Name)
		if r.Requests <= 0 || r.QPS <= 0 {
			t.Errorf("row %q: requests %d, qps %v", r.Name, r.Requests, r.QPS)
		}
	}
	want := []string{"E14/analyze-warm", "E14/analyze-cold", "E14/session-edit", "E14/batch-8srcs"}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Errorf("records = %v, want %v", names, want)
	}
}

func TestHelpers(t *testing.T) {
	if f2(1.5) != "1.50" {
		t.Errorf("f2 = %q", f2(1.5))
	}
	for d, want := range map[time.Duration]string{
		500 * time.Nanosecond:  "500ns",
		2500 * time.Nanosecond: "2.5µs",
		3 * time.Millisecond:   "3.00ms",
	} {
		if got := dur(d); got != want {
			t.Errorf("dur(%v) = %q, want %q", d, got, want)
		}
	}
	if got := timeIt(func() {}); got < 0 {
		t.Errorf("timeIt negative: %v", got)
	}
}

// TestTimeItMedian pins timeIt's contract: an op slower than its batch
// target is timed from at least five single runs, and their median
// ignores one slow outlier that a mean would not.
func TestTimeItMedian(t *testing.T) {
	calls := 0
	got := timeIt(func() {
		calls++
		d := 15 * time.Millisecond
		if calls == 5 {
			d = 300 * time.Millisecond
		}
		time.Sleep(d)
	})
	if calls < 7 {
		t.Errorf("timeIt ran f %d times, want two warm-ups and five samples", calls)
	}
	if got < 15*time.Millisecond || got > 60*time.Millisecond {
		t.Errorf("timeIt = %v, want the median run of about 15ms", got)
	}
}

// TestAllExperimentsRegistered pins the experiment inventory against
// EXPERIMENTS.md.
func TestAllExperimentsRegistered(t *testing.T) {
	want := map[string]bool{
		"E1": true, "E2": true, "E3": true, "E4": true, "E5": true,
		"E6": true, "E7": true, "E8": true, "E9": true, "E10": true,
		"E13": true, "E14": true, "E15": true,
	}
	for _, e := range experiments {
		delete(want, e.id)
	}
	if len(want) != 0 {
		t.Errorf("experiments missing: %v", want)
	}
}
