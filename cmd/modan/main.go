// Command modan analyzes a MiniPL program and reports interprocedural
// side effects: GMOD/GUSE summaries, RMOD for reference formals, alias
// pairs, per-call-site MOD/USE sets, and regular-section refinements.
//
// Usage:
//
//	modan [flags] file.mpl...     # or - for stdin
//
// Flags select report parts; with no selection the full report is
// printed. -dot emits Graphviz renderings of the call multi-graph or
// the binding multi-graph instead of a report. Several files are
// analyzed as a batch on a worker pool (-j bounds the workers); each
// file's output is preceded by a "==> name <==" header, in argument
// order.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"sideeffect"
	"sideeffect/internal/faultinject"
	"sideeffect/internal/gofront"
	"sideeffect/internal/lang/parser"
	"sideeffect/internal/lang/printer"
	"sideeffect/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// emitDegraded renders the degraded-function lists of analyzed Go
// packages: "text" prints one attributable line per function, "json"
// the deterministic document CI diffs structurally.
func emitDegraded(format string, results []sideeffect.GoResult, stdout, stderr io.Writer) int {
	pkgs := make([]*gofront.Package, len(results))
	for i, r := range results {
		pkgs[i] = r.Pkg
	}
	switch format {
	case "text":
		for _, p := range pkgs {
			for _, rec := range p.DegradedRecords() {
				fmt.Fprintf(stdout, "%s: %s: %s\n", p.Path, rec.Proc, strings.Join(rec.Reasons, "; "))
			}
		}
	case "json":
		out, err := gofront.DegradedJSON(pkgs)
		if err != nil {
			fmt.Fprintf(stderr, "modan: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", out)
	default:
		fmt.Fprintf(stderr, "modan: -degraded must be text or json, got %q\n", format)
		return 2
	}
	return 0
}

// run is the testable entry point.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("modan", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		gmod      = fs.Bool("gmod", false, "print only the GMOD/GUSE summary table")
		rmod      = fs.Bool("rmod", false, "print only the RMOD table")
		sites     = fs.Bool("sites", false, "print only the per-call-site MOD/USE table")
		sections  = fs.Bool("sections", false, "print only the regular-section table")
		aliases   = fs.Bool("aliases", false, "print only the alias-pair table")
		dot       = fs.String("dot", "", "emit Graphviz instead of a report: cg (call graph) or beta (binding graph)")
		format    = fs.Bool("fmt", false, "reformat the program to canonical style instead of analyzing")
		asJSON    = fs.Bool("json", false, "emit the complete analysis as JSON")
		profile   = fs.Bool("profile", false, "time each pipeline stage; prints a stage table after the report, or embeds \"stages\" with -json")
		jobs      = fs.Int("j", 0, "worker-pool size for multi-file batches and in-analysis stage parallelism (0 = GOMAXPROCS, 1 = fully sequential)")
		faults    = fs.Float64("faults", 0, "chaos-testing fault probability per pipeline fault point (0 = off)")
		faultSeed = fs.Int64("fault-seed", 1, "fault-injection seed; same seed + inputs replays the same faults")
		lang      = fs.String("lang", "minipl", "input language: minipl (files) or go (package patterns, directories, or .go files)")
		gomodule  = fs.Bool("module", false, "go mode: analyze the patterns as one whole module — cross-package calls resolve and closed interface calls devirtualize")
		degraded  = fs.String("degraded", "", "go mode: print the degraded-function list instead of reports, as \"text\" or \"json\"")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: modan [flags] <file.mpl... | ->\n")
		fmt.Fprintf(stderr, "       modan -lang=go [flags] <./pkg/... | dir | file.go>...\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	opts := sideeffect.Options{Workers: *jobs, Profile: *profile}
	inj := faultinject.New(faultinject.Config{Rate: *faults, Seed: *faultSeed})
	opts.Faults = inj
	if inj != nil {
		defer func() {
			if s := inj.Summary(); s != "" {
				fmt.Fprintf(stderr, "modan: injected faults: %s\n", s)
			}
		}()
	}

	// profileLines prints the stage table plus the condensed-solver
	// work line under -profile.
	profileLines := func(w io.Writer, a *sideeffect.Analysis) {
		if a.Stages != nil {
			fmt.Fprint(w, a.Stages.Table())
		}
		g := a.GMODWork()
		fmt.Fprintf(w, "gmod: %d bit-vector steps, %d components, %d shared rows, %d materialized rows\n",
			g.BitVectorSteps(), g.Components, g.SharedRowHits, g.CondensedRows)
	}

	// render honors the part-selection flags; with none set it prints
	// the full report. Shared by the single-file and batch paths.
	render := func(w io.Writer, a *sideeffect.Analysis) {
		any := false
		show := func(cond bool, body func() string) {
			if cond {
				fmt.Fprint(w, body())
				any = true
			}
		}
		show(*gmod, func() string { return report.Summaries(a.Mod, a.Use) })
		show(*rmod, func() string { return report.RMODTable(a.Mod) })
		show(*aliases, func() string { return report.Aliases(a.Aliases) })
		show(*sites, func() string { return report.CallSites(a.Mod, a.Use, a.Aliases) })
		show(*sections, func() string { return report.Sections(a.SecMod) })
		if !any {
			fmt.Fprint(w, a.Report())
		}
	}

	// Go mode: targets are package patterns; each package prints its
	// report (or selected parts) plus the lowering-confidence table
	// under a header, in package-path order.
	if *lang == "go" {
		if *dot != "" || *format || *asJSON {
			fmt.Fprintf(stderr, "modan: -dot, -fmt, and -json apply to MiniPL inputs only\n")
			return 2
		}
		opts.GoModule = *gomodule
		results, err := sideeffect.AnalyzeGoPackages(fs.Args(), opts)
		if err != nil {
			fmt.Fprintf(stderr, "modan: %v\n", err)
			return 1
		}
		if *degraded != "" {
			return emitDegraded(*degraded, results, stdout, stderr)
		}
		for _, r := range results {
			if len(results) > 1 {
				fmt.Fprintf(stdout, "==> %s <==\n", r.Pkg.Path)
			}
			render(stdout, r.Analysis)
			fmt.Fprintf(stdout, "\n%s", r.Pkg.ConfidenceReport())
			if *profile {
				profileLines(stdout, r.Analysis)
			}
		}
		return 0
	} else if *lang != "minipl" {
		fmt.Fprintf(stderr, "modan: -lang must be minipl or go, got %q\n", *lang)
		return 2
	}
	if *gomodule || *degraded != "" {
		fmt.Fprintf(stderr, "modan: -module and -degraded apply to -lang=go only\n")
		return 2
	}

	// Multi-file mode: analyze every file as a batch and print each
	// report under a header, in argument order.
	if fs.NArg() > 1 {
		if *dot != "" || *format || *asJSON || *profile {
			fmt.Fprintf(stderr, "modan: -dot, -fmt, -json, and -profile take a single input\n")
			return 2
		}
		srcs := make([]string, fs.NArg())
		for i, name := range fs.Args() {
			b, err := os.ReadFile(name)
			if err != nil {
				fmt.Fprintf(stderr, "modan: %v\n", err)
				return 1
			}
			srcs[i] = string(b)
		}
		code := 0
		for i, r := range sideeffect.AnalyzeAllContext(context.Background(), srcs, opts) {
			fmt.Fprintf(stdout, "==> %s <==\n", fs.Arg(i))
			if r.Err != nil {
				fmt.Fprintf(stderr, "modan: %s: %v\n", fs.Arg(i), r.Err)
				code = 1
				continue
			}
			if r.Degraded {
				fmt.Fprintf(stderr, "modan: %s: first attempt panicked; served by the sequential fallback\n", fs.Arg(i))
			}
			render(stdout, r.Analysis)
		}
		return code
	}

	var src []byte
	var err error
	if fs.Arg(0) == "-" {
		src, err = io.ReadAll(stdin)
	} else {
		src, err = os.ReadFile(fs.Arg(0))
	}
	if err != nil {
		fmt.Fprintf(stderr, "modan: %v\n", err)
		return 1
	}

	if *format {
		tree, err := parser.Parse(string(src))
		if err != nil {
			fmt.Fprintf(stderr, "modan: %v\n", err)
			return 1
		}
		fmt.Fprint(stdout, printer.Print(tree))
		return 0
	}

	// The hardened entry point computes identical results and turns a
	// pipeline panic (only possible under -faults) into an error.
	a, err := sideeffect.AnalyzeContext(context.Background(), string(src), opts)
	if err != nil {
		fmt.Fprintf(stderr, "modan: %v\n", err)
		return 1
	}

	if *asJSON {
		jr := report.BuildJSON(a.Mod, a.Use, a.Aliases, a.SecMod)
		if a.Stages != nil {
			jr.Stages = a.Stages.Snapshot()
		}
		if err := report.WriteJSON(stdout, jr); err != nil {
			fmt.Fprintf(stderr, "modan: %v\n", err)
			return 1
		}
		return 0
	}

	switch *dot {
	case "":
	case "cg":
		fmt.Fprint(stdout, report.DotCallGraph(a.Prog))
		return 0
	case "beta":
		fmt.Fprint(stdout, report.DotBinding(a.Mod.Beta))
		return 0
	default:
		fmt.Fprintf(stderr, "modan: -dot must be cg or beta, got %q\n", *dot)
		return 2
	}

	render(stdout, a)
	if *profile {
		profileLines(stdout, a)
	}
	return 0
}
