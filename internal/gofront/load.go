package gofront

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// sourceFile is one named Go source text.
type sourceFile struct {
	name string // display / base name
	src  string
}

// Load expands the given package patterns ("./...", a directory, or a
// single .go file), loads each matched package, and lowers it. The
// result is sorted by display path and deterministic for a fixed file
// system state. A pattern matching no Go packages is an error; a
// package that fails to *parse* is an error; type errors are tolerated
// and degrade confidence instead.
func Load(patterns []string) ([]*Package, error) {
	dirs, singles, err := Expand(patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		p, err := LoadDir(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	for _, file := range singles {
		b, err := os.ReadFile(file)
		if err != nil {
			return nil, fmt.Errorf("gofront: %w", err)
		}
		p, err := analyzeFiles(file, filepath.Dir(file), []sourceFile{{name: filepath.Base(file), src: string(b)}})
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	if len(pkgs) == 0 {
		return nil, fmt.Errorf("gofront: no Go packages match %v", patterns)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// Expand resolves package patterns to package directories and
// single-file targets. "dir/..." walks dir recursively; a directory
// matches itself when it holds non-test .go files; a path ending in
// ".go" is a single-file package. Walks skip testdata, vendor, hidden,
// and underscore-prefixed directories, mirroring the go tool.
func Expand(patterns []string) (dirs, singles []string, err error) {
	seen := map[string]bool{}
	addDir := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		switch {
		case strings.HasSuffix(pat, ".go"):
			if _, err := os.Stat(pat); err != nil {
				return nil, nil, fmt.Errorf("gofront: %w", err)
			}
			singles = append(singles, pat)
		case strings.HasSuffix(pat, "..."):
			root := strings.TrimSuffix(pat, "...")
			root = strings.TrimSuffix(root, "/")
			if root == "" {
				root = "."
			}
			err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				base := filepath.Base(path)
				if path != root && (base == "testdata" || base == "vendor" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
					return filepath.SkipDir
				}
				if hasGoFiles(path) {
					addDir(path)
				}
				return nil
			})
			if err != nil {
				return nil, nil, fmt.Errorf("gofront: %w", err)
			}
		default:
			fi, err := os.Stat(pat)
			if err != nil {
				return nil, nil, fmt.Errorf("gofront: %w", err)
			}
			if !fi.IsDir() {
				return nil, nil, fmt.Errorf("gofront: %s is not a directory, a .go file, or a ... pattern", pat)
			}
			if !hasGoFiles(pat) {
				return nil, nil, fmt.Errorf("gofront: no non-test .go files in %s", pat)
			}
			addDir(pat)
		}
	}
	sort.Strings(dirs)
	sort.Strings(singles)
	return dirs, singles, nil
}

func hasGoFiles(dir string) bool {
	names, err := sourceNames(dir)
	return err == nil && len(names) > 0
}

// sourceNames lists the analyzable Go files of dir in name order: the
// isSourceName files that the default build context selects by their
// //go:build lines and _GOOS/_GOARCH name suffixes. A directory where
// no file matches (a package built only under a tag, like
// runtime/asan) keeps the unfiltered list, so it still loads.
func sourceNames(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var all, match []string
	for _, e := range ents {
		if e.IsDir() || !isSourceName(e.Name()) {
			continue
		}
		all = append(all, e.Name())
		// An unreadable header is kept, so the parser reports it.
		if ok, err := build.Default.MatchFile(dir, e.Name()); ok || err != nil {
			match = append(match, e.Name())
		}
	}
	if len(match) == 0 {
		return all, nil
	}
	return match, nil
}

// isSourceName reports whether name is an analyzable Go source file:
// .go, not a test file, not generated-looking hidden/underscore names.
func isSourceName(name string) bool {
	return strings.HasSuffix(name, ".go") &&
		!strings.HasSuffix(name, "_test.go") &&
		!strings.HasPrefix(name, ".") &&
		!strings.HasPrefix(name, "_")
}

// LoadDir loads and lowers the package in one directory.
func LoadDir(dir string) (*Package, error) {
	names, err := sourceNames(dir)
	if err != nil {
		return nil, fmt.Errorf("gofront: %w", err)
	}
	var files []sourceFile
	for _, name := range names {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("gofront: %w", err)
		}
		files = append(files, sourceFile{name: name, src: string(b)})
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("gofront: no non-test .go files in %s", dir)
	}
	return analyzeFiles(dir, dir, files)
}

// AnalyzeSource lowers a single in-memory Go file as its own package.
// name is the display name used in reports and positions.
func AnalyzeSource(name, src string) (*Package, error) {
	return analyzeFiles(name, "", []sourceFile{{name: name, src: src}})
}

// Hash computes the content-addressed package identity: language tag
// and lowering version, then each (name, content) pair in slice order.
func Hash(files []sourceFile) string {
	h := sha256.New()
	fmt.Fprintf(h, "lang=go\x00v%d\x00", LoweringVersion)
	for _, f := range files {
		fmt.Fprintf(h, "%s\x00%d\x00%s", f.name, len(f.src), f.src)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// analyzeFiles parses, type-checks (leniently), and lowers one
// package. Files must be sorted by name before hashing/lowering so two
// loads of the same directory are byte-identical.
func analyzeFiles(displayPath, dir string, files []sourceFile) (*Package, error) {
	sort.Slice(files, func(i, j int) bool { return files[i].name < files[j].name })

	fset := token.NewFileSet()
	var asts []*ast.File
	var parseErrs []string
	for _, f := range files {
		af, err := parser.ParseFile(fset, f.name, f.src, parser.SkipObjectResolution)
		if err != nil {
			parseErrs = append(parseErrs, err.Error())
			continue
		}
		asts = append(asts, af)
	}
	if len(asts) == 0 {
		return nil, fmt.Errorf("gofront: %s: %s", displayPath, strings.Join(parseErrs, "; "))
	}
	// Mixed package clauses in one directory (package x + package
	// x_test leftovers, or main + lib): keep the majority clause so
	// the type checker sees one package.
	asts = majorityPackage(asts)

	pkgName := asts[0].Name.Name
	typeErrs := 0
	imp := newLenientImporter(fset, dir)
	conf := types.Config{
		Importer:         imp,
		FakeImportC:      true,
		IgnoreFuncBodies: false,
		Error:            func(error) { typeErrs++ },
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	// Check never fails fatally here: the Error hook swallows
	// diagnostics and the lowering degrades around missing info.
	tpkg, _ := conf.Check(pkgName, fset, asts, info)

	low := newLowerer(displayPath, fset, info, tpkg)
	low.importBroken = imp.failed
	prog, notes, err := low.lower(asts)
	if err != nil {
		return nil, fmt.Errorf("gofront: %s: %w", displayPath, err)
	}
	names := make([]string, len(files))
	for i, f := range files {
		names[i] = f.name
	}
	return &Package{
		Name:       pkgName,
		Dir:        dir,
		Path:       displayPath,
		Files:      names,
		Hash:       Hash(files),
		Prog:       prog,
		Notes:      notes,
		TypeErrors: typeErrs + len(parseErrs),
	}, nil
}

// majorityPackage keeps the files of the most common package clause
// (ties break to the lexically smaller name for determinism).
func majorityPackage(asts []*ast.File) []*ast.File {
	count := map[string]int{}
	for _, f := range asts {
		count[f.Name.Name]++
	}
	best := ""
	for name, n := range count {
		if best == "" || n > count[best] || n == count[best] && name < best {
			best = name
		}
	}
	var out []*ast.File
	for _, f := range asts {
		if f.Name.Name == best {
			out = append(out, f)
		}
	}
	return out
}

// lenientImporter resolves imports without failing the load: packages
// in GOROOT come from the process-wide stdlib importer, module-local
// packages and the module's dependencies are type-checked from source
// on demand, and anything unresolvable becomes an empty, incomplete
// package whose members the lowering treats as unknown (degrading
// confidence).
type lenientImporter struct {
	fset    *token.FileSet
	ctx     build.Context // build.Default, resolving from the module root
	dir     string        // absolute directory of the package being loaded ("" = none)
	modRoot string        // module root directory ("" = none found)
	modPath string        // module path from go.mod
	memo    map[string]*types.Package
	// failed records import paths that fell back to an incomplete
	// package, sorted on read.
	failed map[string]bool
}

func newLenientImporter(fset *token.FileSet, dir string) *lenientImporter {
	li := &lenientImporter{
		fset:   fset,
		ctx:    build.Default,
		dir:    dir,
		memo:   map[string]*types.Package{},
		failed: map[string]bool{},
	}
	if abs, err := filepath.Abs(dir); dir != "" && err == nil {
		li.dir = abs
	}
	li.modRoot, li.modPath = findModule(li.dir)
	// go/build runs `go list` in ctx.Dir for imports outside GOROOT,
	// so dependencies resolve from the analysed module, not from the
	// process's working directory.
	li.ctx.Dir = li.modRoot
	return li
}

// stdlib is the process-wide importer behind every load for packages
// that resolve into GOROOT: each is type-checked at most once per
// process, with function bodies skipped, and its *types.Package is
// shared by every later load. GOROOT is assumed immutable for the life
// of the process. Cached packages record positions in stdlib's own
// FileSet; the lowering only converts positions of the loaded
// package's declarations, through the load's FileSet.
var stdlib = struct {
	mu  sync.Mutex // go/internal/srcimporter keeps its package map unsynchronised
	imp types.ImporterFrom
	// pkgs holds every resolved GOROOT import path, nil for a package
	// that failed to type-check.
	pkgs map[string]*types.Package
}{
	imp:  importer.ForCompiler(token.NewFileSet(), "source", nil).(types.ImporterFrom),
	pkgs: map[string]*types.Package{},
}

// importStd returns the shared package for path as imported from
// srcDir; gorootPath is its resolved GOROOT import path (vendored
// packages carry a "vendor/" prefix), the cache key.
func importStd(path, srcDir, gorootPath string) *types.Package {
	stdlib.mu.Lock()
	defer stdlib.mu.Unlock()
	if p, ok := stdlib.pkgs[gorootPath]; ok {
		return p
	}
	p, err := stdlib.imp.ImportFrom(path, srcDir, 0)
	if err != nil {
		p = nil
	}
	stdlib.pkgs[gorootPath] = p
	return p
}

// findModule walks up from dir to the nearest go.mod and returns its
// directory and module path.
func findModule(dir string) (root, path string) {
	if dir == "" {
		return "", ""
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", ""
	}
	for d := abs; ; {
		b, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(b), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					return d, strings.Trim(strings.TrimSpace(rest), `"`)
				}
			}
			return d, ""
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", ""
		}
		d = parent
	}
}

func (li *lenientImporter) Import(path string) (*types.Package, error) {
	return li.ImportFrom(path, li.dir, 0)
}

func (li *lenientImporter) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := li.memo[path]; ok {
		return p, nil
	}
	// go/types passes the directory of the importing file's name, and
	// a package's own files are parsed under their base names: resolve
	// that "." against the package directory, or GOROOT's vendor tree
	// and the module's dependencies are never searched.
	if !filepath.IsAbs(srcDir) && li.dir != "" {
		srcDir = filepath.Join(li.dir, srcDir)
	}
	if p := li.resolve(path, srcDir); p != nil {
		li.memo[path] = p
		return p, nil
	}
	// Incomplete stand-in: selections through it fail to type-check,
	// which the lowering maps to the unknown-call degradation.
	li.failed[path] = true
	name := path
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	p := types.NewPackage(path, name)
	li.memo[path] = p
	return p, nil
}

func (li *lenientImporter) resolve(path, srcDir string) *types.Package {
	// Module-local import: type-check the subdirectory from source
	// with this same importer (Go imports are acyclic).
	if li.modPath != "" && (path == li.modPath || strings.HasPrefix(path, li.modPath+"/")) {
		sub := strings.TrimPrefix(strings.TrimPrefix(path, li.modPath), "/")
		dir := filepath.Join(li.modRoot, filepath.FromSlash(sub))
		return li.checkDir(path, dir)
	}
	bp, err := li.ctx.Import(path, srcDir, build.FindOnly)
	if err != nil {
		return nil
	}
	if bp.Goroot {
		return importStd(path, srcDir, bp.ImportPath)
	}
	// Vendored or from the module cache: checked here, so it sees the
	// same shared stdlib packages as the code that imports it.
	if bp, err = li.ctx.ImportDir(bp.Dir, 0); err != nil {
		return nil
	}
	return li.check(path, bp.Dir, bp.GoFiles)
}

// checkDir type-checks a module-local dependency just enough to hand
// back its exported type information.
func (li *lenientImporter) checkDir(path, dir string) *types.Package {
	names, err := sourceNames(dir)
	if err != nil {
		return nil
	}
	return li.check(path, dir, names)
}

// check type-checks an imported package from the named files of dir,
// skipping function bodies and dropping diagnostics: only its
// exported API is needed.
func (li *lenientImporter) check(path, dir string, names []string) *types.Package {
	var asts []*ast.File
	for _, name := range names {
		full := filepath.Join(dir, name)
		b, err := os.ReadFile(full)
		if err != nil {
			continue
		}
		af, err := parser.ParseFile(li.fset, full, b, parser.SkipObjectResolution)
		if err != nil {
			continue
		}
		asts = append(asts, af)
	}
	if len(asts) == 0 {
		return nil
	}
	conf := types.Config{Importer: li, FakeImportC: true, IgnoreFuncBodies: true, Error: func(error) {}}
	pkg, _ := conf.Check(path, li.fset, asts, nil)
	if pkg == nil {
		return nil
	}
	pkg.MarkComplete()
	return pkg
}
