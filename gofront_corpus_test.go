package sideeffect

import (
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"sideeffect/internal/gofront"
	"sideeffect/internal/lint"
)

// update regenerates every file-based golden in place of comparing.
// Run `go test -run Golden -update ./...` after a deliberate
// behaviour or formatting change, then review the diff.
var update = flag.Bool("update", false, "rewrite golden files instead of comparing")

// checkGolden compares got against the golden file at path, or
// rewrites the file under -update. Differences report the first
// drifting line so updates are easy to review.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantB, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	want := string(wantB)
	if got == want {
		return
	}
	t.Errorf("output drifted from %s (rerun with -update if intended)", path)
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Logf("first diff at line %d:\n got: %q\nwant: %q", i+1, gl[i], wl[i])
			return
		}
	}
	t.Logf("outputs diverge in length: got %d lines, want %d", len(gl), len(wl))
}

// corpusDirs lists the fixture packages under testdata/gofront in
// name order, skipping the golden directory itself.
func corpusDirs(t *testing.T) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join("testdata", "gofront"))
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for _, e := range entries {
		// "golden" holds expectations, "mod" whole-module fixtures with
		// their own golden test below.
		if e.IsDir() && e.Name() != "golden" && e.Name() != "mod" {
			dirs = append(dirs, filepath.Join("testdata", "gofront", e.Name()))
		}
	}
	sort.Strings(dirs)
	if len(dirs) < 12 {
		t.Fatalf("fixture corpus has %d packages, want >= 12", len(dirs))
	}
	return dirs
}

// TestGoFrontCorpusGolden pins the full analysis report (with the
// lowering-confidence table) and the modlint output in all three
// formats for every fixture package. Any change to the frontend's
// lowering decisions, the solver, the lint rules, or the writers
// shows up as a diff here.
func TestGoFrontCorpusGolden(t *testing.T) {
	for _, dir := range corpusDirs(t) {
		name := filepath.Base(dir)
		t.Run(name, func(t *testing.T) {
			results, err := AnalyzeGoPackages([]string{dir}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != 1 {
				t.Fatalf("got %d packages for %s, want 1", len(results), dir)
			}
			r := results[0]

			golden := func(ext string) string {
				return filepath.Join("testdata", "gofront", "golden", name+"."+ext)
			}
			checkGolden(t, golden("report.txt"), r.GoReport())

			rep, err := r.Analysis.Lint(lint.Config{})
			if err != nil {
				t.Fatal(err)
			}
			files := []lint.FileReport{{File: r.Pkg.Path, Report: rep}}
			checkGolden(t, golden("lint.txt"), lint.Text(files))
			jsonOut, err := lint.JSON(files)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, golden("lint.json"), jsonOut)
			sarifOut, err := lint.SARIF(files)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, golden("lint.sarif"), sarifOut)
		})
	}
}

// moduleDirs lists the whole-module fixtures under testdata/gofront/mod
// in name order. Each is a self-contained module with its own go.mod.
func moduleDirs(t *testing.T) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join("testdata", "gofront", "mod"))
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for _, e := range entries {
		if e.IsDir() {
			dirs = append(dirs, filepath.Join("testdata", "gofront", "mod", e.Name()))
		}
	}
	sort.Strings(dirs)
	if len(dirs) < 4 {
		t.Fatalf("module corpus has %d modules, want >= 4", len(dirs))
	}
	return dirs
}

// TestGoFrontModuleGolden pins the whole-module analysis report and
// lint output for every fixture module: cross-package resolution,
// closed- and open-world interface dispatch, and field-sensitive
// struct effects all show up in these goldens.
func TestGoFrontModuleGolden(t *testing.T) {
	for _, dir := range moduleDirs(t) {
		name := filepath.Base(dir)
		t.Run(name, func(t *testing.T) {
			r, err := AnalyzeGoModule(dir, nil, Options{})
			if err != nil {
				t.Fatal(err)
			}

			golden := func(ext string) string {
				return filepath.Join("testdata", "gofront", "golden", "mod_"+name+"."+ext)
			}
			checkGolden(t, golden("report.txt"), r.GoReport())

			rep, err := r.Analysis.Lint(lint.Config{})
			if err != nil {
				t.Fatal(err)
			}
			files := []lint.FileReport{{File: r.Pkg.Path, Report: rep}}
			checkGolden(t, golden("lint.txt"), lint.Text(files))
			jsonOut, err := lint.JSON(files)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, golden("lint.json"), jsonOut)
			sarifOut, err := lint.SARIF(files)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, golden("lint.sarif"), sarifOut)
		})
	}
}

// TestGoFrontModuleFacts asserts the behaviours the module fixtures
// exist to demonstrate, independent of golden formatting.
func TestGoFrontModuleFacts(t *testing.T) {
	byName := map[string]GoResult{}
	for _, dir := range moduleDirs(t) {
		r, err := AnalyzeGoModule(dir, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		byName[filepath.Base(dir)] = r
	}

	// Cross-package calls resolve: nothing in crosspkg degrades, and
	// the cross-package method call still reaches RMOD of the callee.
	if d := byName["crosspkg"].Pkg.Degraded(); len(d) > 0 {
		t.Errorf("crosspkg: unexpectedly degraded: %v", d)
	}

	// Closed-world dispatch devirtualizes (Area and Grow sites) and
	// leaves the module fully analyzed.
	if got := byName["ifaceclosed"].Pkg.Devirtualized; got < 2 {
		t.Errorf("ifaceclosed: Devirtualized = %d, want >= 2", got)
	}
	if d := byName["ifaceclosed"].Pkg.Degraded(); len(d) > 0 {
		t.Errorf("ifaceclosed: unexpectedly degraded: %v", d)
	}

	// Open dispatch degrades with its own distinct reason for both the
	// foreign interface and the implementation-free local one.
	open := byName["ifaceopen"].Pkg
	for _, proc := range []string{"sink.Drain", "sink.Notify"} {
		n := open.Note(proc)
		if n == nil || n.Confidence != gofront.Degraded {
			t.Fatalf("ifaceopen: %s not degraded", proc)
		}
		found := false
		for _, reason := range n.Reasons {
			if strings.Contains(reason, "open interface dispatch") {
				found = true
			}
		}
		if !found {
			t.Errorf("ifaceopen: %s reasons %v lack open-interface reason", proc, n.Reasons)
		}
	}
	if open.Devirtualized != 0 {
		t.Errorf("ifaceopen: Devirtualized = %d, want 0", open.Devirtualized)
	}

	// Field sensitivity: Widen mods its ref formal, Area does not, and
	// the cross-package field write lands on the state global.
	fields := byName["fields"].Analysis
	rmod := func(proc, formal string) bool {
		t.Helper()
		for _, p := range fields.Prog.Procs {
			if p.Name != proc {
				continue
			}
			for _, fm := range p.Formals {
				if fm.Name == formal {
					return fields.Mod.RMOD.Of(fm)
				}
			}
			t.Fatalf("%s: no formal %q", proc, formal)
		}
		t.Fatalf("no procedure %q", proc)
		return false
	}
	if !rmod("app.Widen", "b") {
		t.Error("fields: RMOD(app.Widen.b) = false, want true")
	}
	if rmod("app.Area", "b") {
		t.Error("fields: RMOD(app.Area.b) = true, want false")
	}
	if d := byName["fields"].Pkg.Degraded(); len(d) > 0 {
		t.Errorf("fields: unexpectedly degraded: %v", d)
	}
}

// TestGoFrontCorpusFacts spot-checks load-bearing facts the goldens
// alone would not explain: the corpus must actually demonstrate the
// behaviours its packages are named for.
func TestGoFrontCorpusFacts(t *testing.T) {
	results, err := AnalyzeGoPackages(corpusDirs(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	byPath := map[string]GoResult{}
	for _, r := range results {
		byPath[filepath.Base(r.Pkg.Path)] = r
	}

	// rmod reports whether proc's formal named f is in RMOD.
	rmod := func(t *testing.T, r GoResult, proc, formal string) bool {
		t.Helper()
		for _, p := range r.Analysis.Prog.Procs {
			if p.Name != proc {
				continue
			}
			for _, fm := range p.Formals {
				if fm.Name == formal {
					return r.Analysis.Mod.RMOD.Of(fm)
				}
			}
			t.Fatalf("%s: no formal %q", proc, formal)
		}
		t.Fatalf("no procedure %q", proc)
		return false
	}

	cases := []struct {
		pkg, proc, formal string
		want              bool
	}{
		{"ptrwrite", "Set", "p", true},
		{"ptrwrite", "Peek", "p", false},
		{"slicewrite", "Fill", "s", true},
		{"slicewrite", "First", "s", false},
		{"slicewrite", "Rebind", "s", false},
		{"mapwrite", "Put", "m", true},
		{"mapwrite", "Get", "m", false},
		{"appendinplace", "Grow", "s", true},
		{"appendinplace", "Appended", "s", false},
		{"closures", "FillVia", "s", true},
		{"methods", "Counter.Inc", "c", true},
		{"methods", "Counter.Get", "c", false},
		{"methods", "Touch", "w", true},
		{"methodvalues", "Bound", "g", true},
		{"methodvalues", "Observer", "g", false},
		{"structfields", "MovePoint", "p", true},
		{"structfields", "Widen", "b", true},
		{"structfields", "Area", "b", false},
	}
	for _, c := range cases {
		r, ok := byPath[c.pkg]
		if !ok {
			t.Fatalf("missing corpus package %q", c.pkg)
		}
		if got := rmod(t, r, c.proc, c.formal); got != c.want {
			t.Errorf("%s: RMOD(%s.%s) = %v, want %v", c.pkg, c.proc, c.formal, got, c.want)
		}
	}

	// Degraded confidence appears exactly where unanalyzed code is
	// called, and nowhere in the self-contained packages.
	if d := byPath["unknowncalls"].Pkg.Degraded(); len(d) == 0 {
		t.Error("unknowncalls: no degraded procedures, want Log degraded")
	}
	for _, pkg := range []string{"pure", "ptrwrite", "slicewrite", "mapwrite", "globals"} {
		if d := byPath[pkg].Pkg.Degraded(); len(d) > 0 {
			t.Errorf("%s: unexpectedly degraded: %v", pkg, d)
		}
	}
}
