package gofront

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

// modUnit is one package directory participating in a whole-module
// load, before lowering.
type modUnit struct {
	label   string // module-relative dir ("internal/core"; module base for the root)
	impPath string // import path (modPath + "/" + label)
	dir     string // absolute directory
	files   []sourceFile
	asts    []*ast.File
	imports []string // module-local import paths, sorted
	tpkg    *types.Package
}

// LoadModule loads a whole Go module as ONE shared program: it finds
// the go.mod above root, expands the patterns to seed packages, pulls
// in their module-local import closure, type-checks every package in
// topological (import) order against one shared file set and type
// info, and lowers them together. Cross-package calls resolve to real
// procedures, package-qualified variable references resolve to the
// callee package's globals, and interface calls whose interface is
// defined inside the module devirtualize to the closed set of
// module-local implementations. Patterns default to root/... when
// empty; single-file patterns are rejected in module mode.
func LoadModule(root string, patterns []string) (*Package, error) {
	modRoot, modPath := findModule(root)
	if modRoot == "" {
		return nil, fmt.Errorf("gofront: no go.mod found at or above %s", root)
	}
	if modPath == "" {
		return nil, fmt.Errorf("gofront: go.mod in %s has no module path", modRoot)
	}
	if len(patterns) == 0 {
		patterns = []string{filepath.Join(root, "...")}
	}
	dirs, singles, err := Expand(patterns)
	if err != nil {
		return nil, err
	}
	if len(singles) > 0 {
		return nil, fmt.Errorf("gofront: single-file patterns (%s) are not valid in module mode", singles[0])
	}
	if len(dirs) == 0 {
		return nil, fmt.Errorf("gofront: no Go packages match %v", patterns)
	}

	// Seed units, then close over module-local imports (BFS; Go import
	// graphs are acyclic, broken inputs fall back below).
	units := map[string]*modUnit{} // by import path
	var queue []string
	add := func(impPath string) error {
		if _, ok := units[impPath]; ok {
			return nil
		}
		dir := dirOfImport(modRoot, modPath, impPath)
		u, err := readModUnit(modRoot, modPath, impPath, dir)
		if err != nil {
			return err
		}
		if u == nil {
			return nil // no sources: importer degrades it later
		}
		units[impPath] = u
		queue = append(queue, impPath)
		return nil
	}
	for _, dir := range dirs {
		impPath, err := importOfDir(modRoot, modPath, dir)
		if err != nil {
			return nil, err
		}
		if err := add(impPath); err != nil {
			return nil, err
		}
	}
	if len(units) == 0 {
		return nil, fmt.Errorf("gofront: no Go packages match %v", patterns)
	}
	for i := 0; i < len(queue); i++ {
		for _, imp := range units[queue[i]].imports {
			if err := add(imp); err != nil {
				return nil, err
			}
		}
	}

	order := topoOrder(units)

	// One shared file set, importer, and type info across the module:
	// checking in import order and pre-registering each result keeps
	// one *types.Package (hence one types.Object per declaration) per
	// package, which is what lets the lowering key its shared funcs and
	// globals maps on object identity.
	fset := token.NewFileSet()
	typeErrs := 0
	imp := newLenientImporter(fset, modRoot)
	conf := types.Config{
		Importer:    imp,
		FakeImportC: true,
		Error:       func(error) { typeErrs++ },
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	var lowUnits []*lowerUnit
	var allFiles []sourceFile
	pkgLabels := make([]string, 0, len(order))
	for _, impPath := range order {
		u := units[impPath]
		for _, f := range u.files {
			af, err := parser.ParseFile(fset, filepath.Join(u.dir, f.name), f.src, parser.SkipObjectResolution)
			if err != nil {
				typeErrs++
				continue
			}
			u.asts = append(u.asts, af)
		}
		if len(u.asts) == 0 {
			continue
		}
		u.asts = majorityPackage(u.asts)
		tpkg, _ := conf.Check(impPath, fset, u.asts, info)
		if tpkg == nil {
			continue
		}
		tpkg.MarkComplete()
		imp.memo[impPath] = tpkg
		u.tpkg = tpkg
		lowUnits = append(lowUnits, &lowerUnit{label: u.label, tpkg: tpkg, files: u.asts})
		pkgLabels = append(pkgLabels, u.label)
		for _, f := range u.files {
			rel := u.label + "/" + f.name
			allFiles = append(allFiles, sourceFile{name: rel, src: f.src})
		}
	}
	if len(lowUnits) == 0 {
		return nil, fmt.Errorf("gofront: no package in %v type-checked", patterns)
	}

	display := filepath.ToSlash(filepath.Clean(root))
	low := newLowerer(display, fset, info, lowUnits[0].tpkg)
	low.module = true
	low.fileRoot = modRoot
	low.importBroken = imp.failed
	prog, notes, err := low.lowerUnits(lowUnits)
	if err != nil {
		return nil, fmt.Errorf("gofront: %s: %w", display, err)
	}
	names := make([]string, len(allFiles))
	for i, f := range allFiles {
		names[i] = f.name
	}
	return &Package{
		Name:          path.Base(modPath),
		Dir:           modRoot,
		Path:          display,
		Files:         names,
		Hash:          hashModule(modPath, allFiles),
		Prog:          prog,
		Notes:         notes,
		TypeErrors:    typeErrs,
		Module:        true,
		Packages:      pkgLabels,
		Devirtualized: low.devirt,
	}, nil
}

// importOfDir maps a package directory inside the module to its
// import path.
func importOfDir(modRoot, modPath, dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", fmt.Errorf("gofront: %w", err)
	}
	rel, err := filepath.Rel(modRoot, abs)
	if err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
		return "", fmt.Errorf("gofront: package %s is outside module %s", dir, modRoot)
	}
	if rel == "." {
		return modPath, nil
	}
	return modPath + "/" + filepath.ToSlash(rel), nil
}

// dirOfImport maps a module-local import path back to its directory.
func dirOfImport(modRoot, modPath, impPath string) string {
	sub := strings.TrimPrefix(strings.TrimPrefix(impPath, modPath), "/")
	return filepath.Join(modRoot, filepath.FromSlash(sub))
}

// readModUnit reads one package directory's analyzable sources and
// scans their module-local imports. Returns nil (no error) when the
// directory has no sources — the lenient importer will degrade
// references to it instead.
func readModUnit(modRoot, modPath, impPath, dir string) (*modUnit, error) {
	names, err := sourceNames(dir)
	if err != nil || len(names) == 0 {
		return nil, nil
	}
	u := &modUnit{impPath: impPath, dir: dir}
	if impPath == modPath {
		u.label = path.Base(modPath)
	} else {
		u.label = strings.TrimPrefix(impPath, modPath+"/")
	}
	for _, name := range names {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("gofront: %w", err)
		}
		u.files = append(u.files, sourceFile{name: name, src: string(b)})
	}
	seen := map[string]bool{}
	for _, f := range u.files {
		for _, ip := range scanImports(f) {
			if (ip == modPath || strings.HasPrefix(ip, modPath+"/")) && !seen[ip] {
				seen[ip] = true
				u.imports = append(u.imports, ip)
			}
		}
	}
	sort.Strings(u.imports)
	return u, nil
}

// scanImports parses just the import clause of one source file.
func scanImports(f sourceFile) []string {
	fset := token.NewFileSet()
	af, err := parser.ParseFile(fset, f.name, f.src, parser.ImportsOnly)
	if err != nil || af == nil {
		return nil
	}
	var out []string
	for _, im := range af.Imports {
		if im.Path != nil {
			out = append(out, strings.Trim(im.Path.Value, `"`))
		}
	}
	return out
}

// topoOrder returns the units' import paths dependency-first (Kahn's
// algorithm with a sorted ready set, so the order is deterministic).
// Go import graphs are acyclic; if broken sources form a cycle the
// remainder is appended in path order, which only costs precision.
func topoOrder(units map[string]*modUnit) []string {
	paths := make([]string, 0, len(units))
	indeg := map[string]int{}
	for p := range units {
		paths = append(paths, p)
		indeg[p] = 0
	}
	sort.Strings(paths)
	dependents := map[string][]string{} // dep → importers
	for _, p := range paths {
		for _, d := range units[p].imports {
			if _, ok := units[d]; ok && d != p {
				dependents[d] = append(dependents[d], p)
				indeg[p]++
			}
		}
	}
	var ready []string
	for _, p := range paths {
		if indeg[p] == 0 {
			ready = append(ready, p)
		}
	}
	var order []string
	for len(ready) > 0 {
		sort.Strings(ready)
		p := ready[0]
		ready = ready[1:]
		order = append(order, p)
		for _, q := range dependents[p] {
			indeg[q]--
			if indeg[q] == 0 {
				ready = append(ready, q)
			}
		}
	}
	if len(order) < len(paths) { // cycle in broken input
		in := map[string]bool{}
		for _, p := range order {
			in[p] = true
		}
		for _, p := range paths {
			if !in[p] {
				order = append(order, p)
			}
		}
	}
	return order
}

// hashModule is the content-addressed identity of a whole-module
// lowering: the module tag and lowering version, the module path, then
// every (module-relative name, content) pair in package order.
func hashModule(modPath string, files []sourceFile) string {
	h := sha256.New()
	fmt.Fprintf(h, "lang=go-module\x00v%d\x00%s\x00", LoweringVersion, modPath)
	for _, f := range files {
		fmt.Fprintf(h, "%s\x00%d\x00%s", f.name, len(f.src), f.src)
	}
	return hex.EncodeToString(h.Sum(nil))
}
