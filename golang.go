package sideeffect

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"

	"sideeffect/internal/gofront"
	"sideeffect/internal/ir"
)

// GoResult pairs one lowered Go package with its completed analysis.
type GoResult struct {
	Pkg      *gofront.Package
	Analysis *Analysis
}

// AnalyzeGoPackages loads real Go packages (patterns: "./..."-style
// walks, directories, or single .go files), lowers each onto the ir
// with the conservative Banning-compatible cut (see internal/gofront),
// and analyzes them as a batch on the schedule of AnalyzeAllContext:
// each package's pipeline runs on one worker. Results are sorted by
// package path and deterministic for a fixed file tree. It takes no
// context, and fails with the first package's error if any package's
// analysis fails.
func AnalyzeGoPackages(patterns []string, opts Options) ([]GoResult, error) {
	pkgs, err := frontend(func() ([]*gofront.Package, error) { return gofront.Load(patterns) })
	if err != nil {
		return nil, err
	}
	progs := make([]*ir.Program, len(pkgs))
	for i, p := range pkgs {
		progs[i] = p.Prog
	}
	out := make([]GoResult, len(pkgs))
	for i, r := range analyzeAll(context.Background(), progs, opts, AnalyzeProgramContext) {
		if r.Err != nil {
			return nil, fmt.Errorf("%s: %w", pkgs[i].Path, r.Err)
		}
		out[i] = GoResult{Pkg: pkgs[i], Analysis: r.Analysis}
	}
	return out, nil
}

// AnalyzeGoModule analyzes a whole Go module as one shared program:
// the patterns' packages plus their module-local import closure lower
// together (the go.mod is found at or above the directory of the first
// pattern), so cross-package calls bind to real procedures and
// interface calls on module-defined interfaces devirtualize to the
// closed implementation set.
func AnalyzeGoModule(ctx context.Context, patterns []string, opts Options) (GoResult, error) {
	return analyzeGo(ctx, opts, func() (*gofront.Package, error) {
		return gofront.LoadModule(moduleRootHint(patterns), patterns)
	})
}

// moduleRootHint picks the directory LoadModule starts its go.mod
// search from, given CLI-style package patterns.
func moduleRootHint(patterns []string) string {
	if len(patterns) == 0 {
		return "."
	}
	p := strings.TrimSuffix(patterns[0], "...")
	p = strings.TrimSuffix(p, "/")
	if p == "" {
		return "."
	}
	if strings.HasSuffix(p, ".go") {
		return filepath.Dir(p)
	}
	return p
}

// AnalyzeGoSource lowers and analyzes a single in-memory Go file as
// its own package. name is the display name used in reports.
func AnalyzeGoSource(ctx context.Context, name, src string, opts Options) (GoResult, error) {
	return analyzeGo(ctx, opts, func() (*gofront.Package, error) { return gofront.AnalyzeSource(name, src) })
}

// analyzeGo loads one Go package with load and analyzes its program
// through AnalyzeProgramContext. A panic in the load or the lowering
// comes back as an error, as one in the pipeline does.
func analyzeGo(ctx context.Context, opts Options, load func() (*gofront.Package, error)) (GoResult, error) {
	pkg, err := frontend(load)
	if err != nil {
		return GoResult{}, err
	}
	a, err := AnalyzeProgramContext(ctx, pkg.Prog, opts)
	if err != nil {
		return GoResult{}, err
	}
	return GoResult{Pkg: pkg, Analysis: a}, nil
}

// GoReport renders the standard analysis report for a Go package,
// followed by the per-function lowering-confidence table (the sound
// degradations the frontend applied).
func (r GoResult) GoReport() string {
	if r.Analysis == nil || r.Pkg == nil {
		return ""
	}
	return r.Analysis.Report() + "\n" + r.Pkg.ConfidenceReport()
}

// String identifies the result by package path and hash prefix.
func (r GoResult) String() string {
	if r.Pkg == nil {
		return "<nil>"
	}
	h := r.Pkg.Hash
	if len(h) > 12 {
		h = h[:12]
	}
	return fmt.Sprintf("%s@%s", r.Pkg.Path, h)
}
