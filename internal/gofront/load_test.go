package gofront

import (
	"fmt"
	"go/build"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"sideeffect/internal/core"
	"sideeffect/internal/report"
)

// procNames lists the lowered procedure names of pkg, $main excluded.
func procNames(pkg *Package) []string {
	var out []string
	for _, p := range pkg.Prog.Procs {
		if !p.IsMain {
			out = append(out, p.Name)
		}
	}
	return out
}

// TestBuildConstraintsSelectFiles checks that a directory's files are
// chosen by the default build context: a file excluded by its GOOS
// suffix is neither lowered nor bound to by a caller, so the caller
// keeps the write of the selected variant.
func TestBuildConstraintsSelectFiles(t *testing.T) {
	if runtime.GOOS == "plan9" {
		t.Skip("the excluded variant is the plan9 one")
	}
	dir := t.TempDir()
	selected := "b_" + runtime.GOOS + ".go"
	for name, src := range map[string]string{
		"a_plan9.go": "package p\n\nfunc F(q *int) {}\n",
		selected:     "package p\n\nfunc F(q *int) { *q = 1 }\n",
		"c.go":       "package p\n\nfunc Caller(x *int) { F(x) }\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkg, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(pkg.Files, " "); got != selected+" c.go" {
		t.Errorf("Files = %s, want %s c.go", got, selected)
	}
	if got := strings.Join(procNames(pkg), " "); got != "F Caller" {
		t.Errorf("procedures = %s, want F Caller", got)
	}
	if pkg.TypeErrors != 0 {
		t.Errorf("TypeErrors = %d, want 0", pkg.TypeErrors)
	}
	res := core.Analyze(pkg.Prog, core.Mod, core.Options{})
	if !rmodOf(t, pkg, res, "Caller", "x") {
		t.Error("RMOD(Caller.x) = false: Caller bound to the excluded variant")
	}

	// The fixture's excluded file carries a tag no platform sets.
	fix, err := LoadDir(filepath.Join("..", "..", "testdata", "gofront", "buildtags"))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(fix.Files, " "); got != "b_selected.go c.go" {
		t.Errorf("buildtags Files = %s, want b_selected.go c.go", got)
	}
}

// TestBuildConstraintsKeepUnmatchedDir checks the fallback: a directory
// none of whose files the build context selects still loads, with
// every file.
func TestBuildConstraintsKeepUnmatchedDir(t *testing.T) {
	dir := t.TempDir()
	src := "//go:build sideeffect_never\n\npackage p\n\nfunc F(q *int) { *q = 1 }\n"
	if err := os.WriteFile(filepath.Join(dir, "only.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	dirs, _, err := Expand([]string{dir})
	if err != nil || len(dirs) != 1 {
		t.Fatalf("Expand = %v, %v; want the directory", dirs, err)
	}
	pkg, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.Files) != 1 || pkg.Files[0] != "only.go" {
		t.Errorf("Files = %v, want [only.go]", pkg.Files)
	}
}

// TestVendoredStdlibImportsResolve loads a GOROOT package that imports
// from GOROOT's vendor tree (golang.org/x/crypto/cryptobyte): the
// import resolves only when go/build searches from the package's own
// directory.
func TestVendoredStdlibImportsResolve(t *testing.T) {
	dir := filepath.Join(build.Default.GOROOT, "src", "crypto", "ecdsa")
	if _, err := os.Stat(dir); err != nil {
		t.Skipf("no GOROOT sources: %v", err)
	}
	pkg, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if pkg.TypeErrors != 0 {
		t.Errorf("crypto/ecdsa: TypeErrors = %d, want 0", pkg.TypeErrors)
	}
}

// TestVendoredModuleDependency loads the vendored fixture module from
// this package's directory, not the module's: the dependency must
// resolve through the module's vendor tree and share the stdlib
// packages of the code calling it.
func TestVendoredModuleDependency(t *testing.T) {
	root := filepath.Join("..", "..", "testdata", "gofront", "mod", "vendored")
	dirs, _, err := Expand([]string{filepath.Join(root, "...")})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 1 || dirs[0] != root {
		t.Errorf("Expand(%s/...) = %v, want only the module root (vendor/ skipped)", root, dirs)
	}
	mod, err := LoadModule(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	single, err := LoadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range []*Package{mod, single} {
		if pkg.TypeErrors != 0 {
			t.Errorf("%s (module %v): TypeErrors = %d, want 0", pkg.Path, pkg.Module, pkg.TypeErrors)
		}
		for _, n := range pkg.Notes {
			for _, r := range n.Reasons {
				if r != `calls unanalyzed "example.com/dep"` {
					t.Errorf("%s (module %v): %s degraded by %q, want only calls into the dependency",
						pkg.Path, pkg.Module, n.Proc, r)
				}
			}
		}
	}
}

// render is the byte-compared form of one load: the solver's
// summaries, the confidence table, and the tolerated type errors.
func render(pkg *Package) string {
	mod := core.Analyze(pkg.Prog, core.Mod, core.Options{})
	use := core.Analyze(pkg.Prog, core.Use, core.Options{})
	return fmt.Sprintf("%s\n%s\ntype errors: %d\n", report.Summaries(mod, use), pkg.ConfidenceReport(), pkg.TypeErrors)
}

// TestConcurrentLoadsShareStdlib runs every kind of load from eight
// goroutines at once against the process-wide stdlib importer and
// checks each result byte for byte against a sequential load of the
// same input.
func TestConcurrentLoadsShareStdlib(t *testing.T) {
	goroot := filepath.Join(build.Default.GOROOT, "src")
	if _, err := os.Stat(goroot); err != nil {
		t.Skipf("no GOROOT sources: %v", err)
	}
	const src = `package p

import (
	"encoding/json"
	"fmt"
	"strings"
)

type Doc struct{ Name string }

func Encode(d *Doc, b *strings.Builder) error {
	out, err := json.Marshal(d)
	if err != nil {
		return err
	}
	b.Write(out)
	fmt.Fprintln(b)
	return nil
}
`
	inputs := []func() (*Package, error){
		func() (*Package, error) { return LoadDir(filepath.Join(goroot, "container", "ring")) },
		func() (*Package, error) { return LoadDir(filepath.Join(goroot, "text", "tabwriter")) },
		func() (*Package, error) { return LoadDir(filepath.Join(goroot, "encoding", "csv")) },
		func() (*Package, error) { return LoadDir(filepath.Join(goroot, "hash", "adler32")) },
		func() (*Package, error) { return AnalyzeSource("doc.go", src) },
		func() (*Package, error) {
			return LoadModule(filepath.Join("..", "..", "testdata", "gofront", "mod", "crosspkg"), nil)
		},
		func() (*Package, error) {
			return LoadModule(filepath.Join("..", "..", "testdata", "gofront", "mod", "vendored"), nil)
		},
	}
	load := func(i int) string {
		pkg, err := inputs[i]()
		if err != nil {
			return "error: " + err.Error()
		}
		return render(pkg)
	}

	const workers = 8
	got := make([][]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		got[w] = make([]string, len(inputs))
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker starts at a different input, so distinct
			// inputs and the same input both overlap.
			for k := range inputs {
				i := (w + k) % len(inputs)
				got[w][i] = load(i)
			}
		}()
	}
	wg.Wait()

	for i := range inputs {
		want := load(i)
		if strings.HasPrefix(want, "error: ") {
			t.Errorf("input %d: %s", i, want)
			continue
		}
		for w := range got {
			if got[w][i] != want {
				t.Errorf("input %d, worker %d: concurrent load differs from the sequential one:\n%s\nwant:\n%s",
					i, w, got[w][i], want)
			}
		}
	}
}
