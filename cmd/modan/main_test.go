package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `
program t;
global g;
proc q(ref x) begin x := 1 end;
begin call q(g) end.
`

func runCmd(t *testing.T, args []string, stdin string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, strings.NewReader(stdin), &out, &errb)
	return code, out.String(), errb.String()
}

func TestStdinFullReport(t *testing.T) {
	code, out, _ := runCmd(t, []string{"-"}, sample)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"Interprocedural summaries", "GMOD", "q", "{g}"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestFileInput(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.mpl")
	if err := os.WriteFile(path, []byte(sample), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, _ := runCmd(t, []string{"-gmod", path}, "")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "GMOD") || strings.Contains(out, "Alias pairs") {
		t.Errorf("-gmod output wrong:\n%s", out)
	}
}

func TestSelectors(t *testing.T) {
	code, out, _ := runCmd(t, []string{"-rmod", "-aliases", "-"}, sample)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "RMOD") || !strings.Contains(out, "⟨g, q.x⟩") {
		t.Errorf("selector output wrong:\n%s", out)
	}
	if strings.Contains(out, "GUSE") {
		t.Error("unselected table printed")
	}
}

func TestDotOutputs(t *testing.T) {
	code, out, _ := runCmd(t, []string{"-dot", "cg", "-"}, sample)
	if code != 0 || !strings.Contains(out, "digraph callgraph") {
		t.Errorf("dot cg: code=%d out=%q", code, out)
	}
	code, out, _ = runCmd(t, []string{"-dot", "beta", "-"}, sample)
	if code != 0 || !strings.Contains(out, "digraph beta") {
		t.Errorf("dot beta: code=%d out=%q", code, out)
	}
	code, _, errb := runCmd(t, []string{"-dot", "nope", "-"}, sample)
	if code != 2 || !strings.Contains(errb, "-dot must be") {
		t.Errorf("bad -dot: code=%d err=%q", code, errb)
	}
}

func TestBadSource(t *testing.T) {
	code, _, errb := runCmd(t, []string{"-"}, "program p; begin x := 1 end.")
	if code != 1 || !strings.Contains(errb, "undeclared") {
		t.Errorf("code=%d err=%q", code, errb)
	}
}

func TestMissingFile(t *testing.T) {
	code, _, errb := runCmd(t, []string{"/nonexistent/file.mpl"}, "")
	if code != 1 || errb == "" {
		t.Errorf("code=%d err=%q", code, errb)
	}
}

func TestUsageOnNoArgs(t *testing.T) {
	code, _, errb := runCmd(t, nil, "")
	if code != 2 || !strings.Contains(errb, "usage:") {
		t.Errorf("code=%d err=%q", code, errb)
	}
}

func TestFmtMode(t *testing.T) {
	code, out, _ := runCmd(t, []string{"-fmt", "-"}, sample)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "proc q(ref x)") || !strings.Contains(out, "end.") {
		t.Errorf("-fmt output:\n%s", out)
	}
	// Formatting must not print a report.
	if strings.Contains(out, "GMOD") {
		t.Error("-fmt printed analysis output")
	}
}

func TestJSONMode(t *testing.T) {
	code, out, _ := runCmd(t, []string{"-json", "-"}, sample)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, `"program": "t"`) || !strings.Contains(out, `"rmod"`) {
		t.Errorf("-json output:\n%s", out)
	}
}

const sample2 = `
program u;
global h;
proc r(ref y) begin y := h end;
begin call r(h) end.
`

func TestMultiFileBatch(t *testing.T) {
	dir := t.TempDir()
	p1 := filepath.Join(dir, "a.mpl")
	p2 := filepath.Join(dir, "b.mpl")
	if err := os.WriteFile(p1, []byte(sample), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p2, []byte(sample2), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, _ := runCmd(t, []string{"-j", "2", p1, p2}, "")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	i1 := strings.Index(out, "==> "+p1+" <==")
	i2 := strings.Index(out, "==> "+p2+" <==")
	if i1 < 0 || i2 < 0 || i2 < i1 {
		t.Fatalf("headers missing or out of order:\n%s", out)
	}
	if !strings.Contains(out[i1:i2], "GMOD") || !strings.Contains(out[i2:], "GUSE") {
		t.Errorf("per-file reports missing:\n%s", out)
	}
}

func TestMultiFileBatchErrorIsolated(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.mpl")
	bad := filepath.Join(dir, "bad.mpl")
	if err := os.WriteFile(good, []byte(sample), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, []byte("program x; begin y := 1 end."), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errb := runCmd(t, []string{bad, good}, "")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errb, "bad.mpl") {
		t.Errorf("stderr missing failing file:\n%s", errb)
	}
	if !strings.Contains(out, "GMOD") {
		t.Errorf("good file's report missing:\n%s", out)
	}
}

func TestMultiFileBatchHonorsSelectionFlags(t *testing.T) {
	dir := t.TempDir()
	p1 := filepath.Join(dir, "a.mpl")
	p2 := filepath.Join(dir, "b.mpl")
	if err := os.WriteFile(p1, []byte(sample), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p2, []byte(sample2), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, _ := runCmd(t, []string{"-gmod", p1, p2}, "")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "GMOD") || strings.Contains(out, "Call sites") {
		t.Errorf("-gmod not honored in batch mode:\n%s", out)
	}
	// Single-input-only modes must be rejected, not silently ignored.
	for _, flag := range []string{"-json", "-fmt"} {
		if code, _, errOut := runCmd(t, []string{flag, p1, p2}, ""); code != 2 {
			t.Errorf("%s with two files: exit %d, stderr %q", flag, code, errOut)
		}
	}
	if code, _, _ := runCmd(t, []string{"-dot", "cg", p1, p2}, ""); code != 2 {
		t.Errorf("-dot with two files: exit %d", code)
	}
}

func TestSequentialFlagMatchesDefault(t *testing.T) {
	_, seq, _ := runCmd(t, []string{"-j", "1", "-"}, sample)
	_, par, _ := runCmd(t, []string{"-"}, sample)
	if seq != par {
		t.Errorf("-j 1 output differs from default:\n--- j1\n%s\n--- default\n%s", seq, par)
	}
}

// TestFaultsFlagDeterministic runs the same chaos invocation twice:
// equal seeds must replay equal faults, so exit code, stdout, and
// stderr are all byte-identical. -j 1 keeps the draw order sequential.
func TestFaultsFlagDeterministic(t *testing.T) {
	args := []string{"-j", "1", "-faults", "1", "-fault-seed", "5", "-"}
	c1, o1, e1 := runCmd(t, args, sample)
	c2, o2, e2 := runCmd(t, args, sample)
	if c1 != c2 || o1 != o2 || e1 != e2 {
		t.Fatalf("chaos run not reproducible:\n(%d,%q,%q)\nvs\n(%d,%q,%q)", c1, o1, e1, c2, o2, e2)
	}
	// At rate 1 every fault point fires; the run ends in a clean error
	// (never a panic across run) and reports the injected-fault summary.
	if c1 != 1 {
		t.Fatalf("saturated chaos run exited %d, want 1\nstderr: %s", c1, e1)
	}
	if !strings.Contains(e1, "injected faults:") {
		t.Errorf("stderr missing injected-fault summary: %q", e1)
	}
}

// TestFaultsFlagZeroIsIdentity checks that -faults 0 (the default path
// through the context-aware entry points) matches the plain run.
func TestFaultsFlagZeroIsIdentity(t *testing.T) {
	_, base, _ := runCmd(t, []string{"-"}, sample)
	code, out, errb := runCmd(t, []string{"-faults", "0", "-"}, sample)
	if code != 0 || errb != "" {
		t.Fatalf("exit %d stderr %q", code, errb)
	}
	if out != base {
		t.Fatalf("-faults 0 changed the report:\n%s\nvs\n%s", out, base)
	}
}

// TestGoProfilePrintsStages: -profile on a Go package prints the stage
// table, as it does for MiniPL inputs.
func TestGoProfilePrintsStages(t *testing.T) {
	code, out, errOut := runCmd(t, []string{"-lang=go", "-profile", "../../internal/arena"}, "")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains("\n"+out, "\ntotal ") {
		t.Errorf("no stage table total row:\n%s", out)
	}
}
