package main

import (
	"fmt"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"sideeffect"
	"sideeffect/internal/gofront"
)

// go-std analyzes real Go: standard-library packages from the local
// GOROOT, each op one AnalyzeGoPackages call plus its report. The
// frontend (parse, type-check, lower) does nearly all of the work and
// the paper's solver almost none, so this is where frontend changes
// must show and where a core change must show nothing.
var goStdDef = workloadDef{name: "go-std", clients: 1, setup: setupGoStd}

// maxStdPackageBytes excludes the few very large packages (runtime,
// syscall, reflect, ...) whose reports run to megabytes and would
// dominate every pass.
const maxStdPackageBytes = 128 << 10

// stdPkg is one drawn GOROOT package with its sources, read in set-up
// so the page cache is warm.
type stdPkg struct {
	path, dir string
	weight    int // source bytes of the package and its import closure
	files     map[string]string
	lines     int
}

type goStd struct {
	pkgs []*stdPkg
	mu   sync.Mutex
	ref  map[string]string // dir → report of the first pass
}

func setupGoStd(r *run) (instance, error) {
	cands, err := stdCandidates()
	if err != nil {
		return nil, err
	}
	s := r.sizes
	band := cands[int(s.stdBand[0]*float64(len(cands))):int(s.stdBand[1]*float64(len(cands)))]
	if len(band) < s.stdPackages {
		return nil, fmt.Errorf("only %d candidate packages in GOROOT", len(band))
	}
	// One package from each of stdPackages equal strata of the band, so
	// every seed draws a pass of about the same cost.
	rng := rand.New(rand.NewSource(r.seed))
	g := &goStd{ref: map[string]string{}}
	for j := 0; j < s.stdPackages; j++ {
		lo, hi := j*len(band)/s.stdPackages, (j+1)*len(band)/s.stdPackages
		p := band[lo+rng.Intn(hi-lo)]
		if err := p.read(); err != nil {
			return nil, err
		}
		g.pkgs = append(g.pkgs, p)
	}
	return g, nil
}

// stdCandidates lists the GOROOT packages outside cmd, vendor, internal
// and testdata, sorted by the source size of their import closure.
func stdCandidates() ([]*stdPkg, error) {
	ctx := build.Default
	src := filepath.Join(ctx.GOROOT, "src")
	type info struct {
		bytes   int
		imports []string
	}
	seen := map[string]*info{}
	var load func(path, srcDir string) *info
	load = func(path, srcDir string) *info {
		if in, ok := seen[path]; ok {
			return in
		}
		in := &info{}
		seen[path] = in
		bp, err := ctx.Import(path, srcDir, 0)
		if err != nil {
			return in // an unresolvable import adds nothing
		}
		for _, f := range bp.GoFiles {
			if fi, err := os.Stat(filepath.Join(bp.Dir, f)); err == nil {
				in.bytes += int(fi.Size())
			}
		}
		for _, imp := range bp.Imports {
			if imp != "C" {
				in.imports = append(in.imports, imp)
				load(imp, bp.Dir)
			}
		}
		return in
	}
	var out []*stdPkg
	err := filepath.WalkDir(src, func(dir string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		base := d.Name()
		if dir != src && (base == "cmd" || base == "vendor" || base == "internal" || base == "testdata" ||
			strings.HasPrefix(base, "_") || strings.HasPrefix(base, ".")) {
			return filepath.SkipDir
		}
		own := sourceBytes(dir)
		if dir == src || own == 0 || own > maxStdPackageBytes {
			return nil
		}
		path, err := filepath.Rel(src, dir)
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		p := &stdPkg{path: path, dir: dir, weight: own}
		closure := map[string]bool{}
		var walk func(string)
		walk = func(imp string) {
			if closure[imp] {
				return
			}
			closure[imp] = true
			in := seen[imp]
			p.weight += in.bytes
			for _, next := range in.imports {
				walk(next)
			}
		}
		for _, imp := range load(path, dir).imports {
			walk(imp)
		}
		out = append(out, p)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("scanning GOROOT: %w", err)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].weight != out[j].weight {
			return out[i].weight < out[j].weight
		}
		return out[i].path < out[j].path
	})
	return out, nil
}

// isSource mirrors the frontend's file filter.
func isSource(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") &&
		!strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_")
}

// sourceBytes is the size of the files the frontend would load from dir.
func sourceBytes(dir string) int {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range ents {
		if e.Type().IsRegular() && isSource(e.Name()) {
			if fi, err := e.Info(); err == nil {
				n += int(fi.Size())
			}
		}
	}
	return n
}

// read loads the package's source files.
func (p *stdPkg) read() error {
	ents, err := os.ReadDir(p.dir)
	if err != nil {
		return err
	}
	p.files, p.lines = map[string]string{}, 0
	for _, e := range ents {
		if !e.Type().IsRegular() || !isSource(e.Name()) {
			continue
		}
		b, err := os.ReadFile(filepath.Join(p.dir, e.Name()))
		if err != nil {
			return err
		}
		p.files[e.Name()] = string(b)
		p.lines += strings.Count(string(b), "\n")
	}
	return nil
}

func (g *goStd) round() int { return len(g.pkgs) }

func (g *goStd) op(r *run, i int) error {
	p := g.pkgs[i%len(g.pkgs)]
	var rep string
	var err error
	if r.tr == nil {
		rep, err = analyzeStd(p)
	} else {
		root := r.tr.begin(i, 0, "go-std.op", "bench")
		defer r.tr.end(root, nil)
		rep, err = g.tracedOp(r, i, root, p)
	}
	if err != nil {
		return fmt.Errorf("go-std op %d (%s): %w", i, p.path, err)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	ref, ok := g.ref[p.dir]
	if !ok {
		g.ref[p.dir] = rep
	} else if rep != ref {
		return fmt.Errorf("go-std op %d: report of %s differs from the first pass", i, p.path)
	}
	return nil
}

// analyzeStd is one untraced op: the public entry point and its report.
func analyzeStd(p *stdPkg) (string, error) {
	res, err := sideeffect.AnalyzeGoPackages([]string{p.dir}, sideeffect.Options{})
	if err != nil {
		return "", err
	}
	if len(res) != 1 {
		return "", fmt.Errorf("%d results for one package", len(res))
	}
	return res[0].GoReport(), nil
}

// tracedOp makes the same calls as AnalyzeGoPackages, one layer at a
// time. The analysis runs with its stage table on.
func (g *goStd) tracedOp(r *run, i, root int, p *stdPkg) (string, error) {
	tr := r.tr
	sp := tr.begin(i, root, "gofront.LoadDir", "gofront")
	pkg, err := gofront.LoadDir(p.dir)
	tr.end(sp, nil)
	if err != nil {
		return "", err
	}
	sp = tr.begin(i, root, "sideeffect.AnalyzeProgramWith", "core")
	a := sideeffect.AnalyzeProgramWith(pkg.Prog, sideeffect.Options{Profile: true})
	tr.end(sp, stageNS(a.Stages))
	sp = tr.begin(i, root, "GoResult.GoReport", "report")
	rep := sideeffect.GoResult{Pkg: pkg, Analysis: a}.GoReport()
	tr.end(sp, nil)
	work := a.GMODWork()
	r.add("steps", float64(work.BitVectorSteps()))
	r.add("components", float64(work.Components))
	r.add("shared", float64(work.SharedRowHits))
	r.add("lines", float64(p.lines))
	r.add("degraded", float64(len(pkg.Degraded())))
	r.add("procs", float64(len(pkg.Notes)))
	r.add("bytes", float64(len(rep)))
	return rep, nil
}

func (g *goStd) finish(r *run, b *breakdown) (map[string]float64, error) {
	if b == nil {
		return nil, nil
	}
	var refTime time.Duration
	for _, p := range g.pkgs {
		// The traced calls must give the public entry point's report
		// byte for byte.
		rep, err := analyzeStd(p)
		if err == nil && rep != g.ref[p.dir] {
			err = fmt.Errorf("go-std: traced report of %s differs from the untraced one", p.path)
		}
		r.verify(err)
		d, err := importRef(p)
		if err != nil {
			return nil, err
		}
		refTime += d
	}
	ops := float64(b.ops)
	load := b.spanNS["gofront.LoadDir"]
	m := map[string]float64{
		"gofront.load_ms":        b.perOp(load),
		"gofront.lines_per_s":    r.sum("lines") / (load / 1e9),
		"gofront.degraded_ratio": r.sum("degraded") / max(1, r.sum("procs")),
		"gofront.import_ref_ms":  ms(refTime) / float64(len(g.pkgs)),
		"core.bit_vector_steps":  r.sum("steps") / ops,
		"core.components":        r.sum("components") / ops,
		"core.shared_row_hits":   r.sum("shared") / ops,
		"report.render_ms":       b.perOp(b.spanNS["GoResult.GoReport"]),
		"report.bytes_per_op":    r.sum("bytes") / ops,
	}
	b.stageMetrics(m)
	return m, nil
}

// importRef times a fresh source importer loading the package's
// imports, the cost every load pays again today.
func importRef(p *stdPkg) (time.Duration, error) {
	fset := token.NewFileSet()
	paths := map[string]bool{}
	for name, src := range p.files {
		f, err := parser.ParseFile(fset, name, src, parser.ImportsOnly)
		if err != nil {
			continue // the frontend skips unparsable files too
		}
		for _, is := range f.Imports {
			if path, err := strconv.Unquote(is.Path.Value); err == nil && path != "C" {
				paths[path] = true
			}
		}
	}
	sorted := make([]string, 0, len(paths))
	for path := range paths {
		sorted = append(sorted, path)
	}
	sort.Strings(sorted)
	imp, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return 0, fmt.Errorf("source importer does not resolve relative imports")
	}
	t0 := time.Now()
	for _, path := range sorted {
		_, _ = imp.ImportFrom(path, p.dir, 0) // a failed import costs what it costs
	}
	return time.Since(t0), nil
}

func (g *goStd) close() {}
