package main

import (
	"os"
	"strings"
	"testing"
	"time"
)

// capture redirects os.Stdout while f runs and returns what was
// printed (the experiment functions print directly).
func capture(t *testing.T, f func()) string {
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
	out := capture(t, func() { expE3(true) })
	for _, want := range []string{"A(*, J)", "A(K, *)", "A(*, *)", "Hasse"} {
		if !strings.Contains(out, want) {
			t.Errorf("E3 output missing %q", want)
		}
	}
}

func TestE10Verdicts(t *testing.T) {
	out := capture(t, func() { expE10(true) })
	if !strings.Contains(out, "PARALLELIZE") || !strings.Contains(out, "serialize") {
		t.Errorf("E10 verdicts missing:\n%s", out)
	}
	if !strings.Contains(out, "A(*, i)") {
		t.Errorf("E10 iteration-local section missing:\n%s", out)
	}
}

func TestE15LintOverhead(t *testing.T) {
	t.Chdir(t.TempDir()) // expE15 writes BENCH_lint.json to the cwd
	out := capture(t, func() { expE15(true) })
	for _, want := range []string{"per-finding", "SE003", "BENCH_lint.json"} {
		if !strings.Contains(out, want) {
			t.Errorf("E15 output missing %q:\n%s", want, out)
		}
	}
}

func TestE16AllocAblation(t *testing.T) {
	t.Chdir(t.TempDir()) // expE16 writes BENCH_core.json to the cwd
	out := capture(t, func() { expE16(true) })
	for _, want := range []string{"core N=", "heap", "arena", "speedup", "BENCH_core.json"} {
		if !strings.Contains(out, want) {
			t.Errorf("E16 output missing %q:\n%s", want, out)
		}
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

// TestAllExperimentsRegistered pins the experiment inventory against
// EXPERIMENTS.md.
func TestAllExperimentsRegistered(t *testing.T) {
	want := map[string]bool{
		"E1": true, "E2": true, "E3": true, "E4": true, "E5": true,
		"E6": true, "E7": true, "E8": true, "E9": true, "E10": true,
		"E13": true, "E14": true, "E15": true, "E16": true,
	}
	for _, e := range experiments {
		delete(want, e.id)
	}
	if len(want) != 0 {
		t.Errorf("experiments missing: %v", want)
	}
}
