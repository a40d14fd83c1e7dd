// Command modlint runs the fact-driven diagnostics engine over MiniPL
// programs: every finding is derived from the interprocedural MOD/USE
// solution (GMOD/GUSE, RMOD, alias pairs, per-call-site sets, regular
// sections), never from syntax alone.
//
// Usage:
//
//	modlint [flags] file.mpl...    # or - for stdin
//
// Output formats are text (compiler-style, the default), json, and
// sarif (SARIF 2.1.0). Multiple files are analyzed concurrently on a
// worker pool (-j bounds the workers); output order is argument order
// regardless of schedule.
//
// Exit codes:
//
//	0  no findings
//	1  findings were reported
//	2  error (usage, unreadable input, parse/semantic failure)
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"sideeffect"
	"sideeffect/internal/gofront"
	"sideeffect/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// splitList parses a comma-separated flag value, dropping empties.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// run is the testable entry point.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("modlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		format   = fs.String("format", "text", "output format: text, json, or sarif")
		rules    = fs.String("rules", "", "comma-separated rules to enable (IDs or names); empty = all")
		disable  = fs.String("disable", "", "comma-separated rules to disable (IDs or names)")
		minSev   = fs.String("min-severity", "", "drop findings below this severity: info, warning, or error")
		list     = fs.Bool("list", false, "list the registered rules and exit")
		jobs     = fs.Int("j", 0, "worker-pool size for multi-file batches (0 = GOMAXPROCS, 1 = sequential)")
		lang     = fs.String("lang", "minipl", "input language: minipl (files) or go (package patterns, directories, or .go files)")
		gomodule = fs.Bool("module", false, "go mode: analyze the patterns as one whole module — cross-package calls resolve and closed interface calls devirtualize")
		degraded = fs.String("degraded", "text", "go mode: degraded-function listing format on stderr, \"text\" or \"json\"")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: modlint [flags] <file.mpl... | ->\n")
		fmt.Fprintf(stderr, "       modlint -lang=go [flags] <./pkg/... | dir | file.go>...\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, rl := range lint.Rules() {
			fmt.Fprintf(stdout, "%s  %-20s %-7s  %s\n", rl.ID, rl.Name, rl.Default, rl.Doc)
		}
		return 0
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}

	cfg := lint.Config{Enable: splitList(*rules), Disable: splitList(*disable)}
	if *minSev != "" {
		sev, err := lint.ParseSeverity(*minSev)
		if err != nil {
			fmt.Fprintf(stderr, "modlint: %v\n", err)
			return 2
		}
		cfg.MinSeverity = sev
	}

	opts := sideeffect.Options{Workers: *jobs}

	switch *lang {
	case "minipl":
		if *gomodule {
			fmt.Fprintf(stderr, "modlint: -module applies to -lang=go only\n")
			return 2
		}
	case "go":
		if *degraded != "text" && *degraded != "json" {
			fmt.Fprintf(stderr, "modlint: -degraded must be text or json, got %q\n", *degraded)
			return 2
		}
		return runGo(fs.Args(), *gomodule, *format, *degraded, cfg, opts, stdout, stderr)
	default:
		fmt.Fprintf(stderr, "modlint: -lang must be minipl or go, got %q\n", *lang)
		return 2
	}

	// Read every input up front so usage errors surface before any
	// analysis work starts.
	names := fs.Args()
	srcs := make([]string, len(names))
	for i, name := range names {
		var b []byte
		var err error
		if name == "-" {
			b, err = io.ReadAll(stdin)
			names[i] = "<stdin>"
		} else {
			b, err = os.ReadFile(name)
		}
		if err != nil {
			fmt.Fprintf(stderr, "modlint: %v\n", err)
			return 2
		}
		srcs[i] = string(b)
	}

	code := 0
	var files []lint.FileReport
	for i, r := range sideeffect.AnalyzeAllContext(context.Background(), srcs, opts) {
		if r.Err != nil {
			fmt.Fprintf(stderr, "modlint: %s: %v\n", names[i], r.Err)
			code = 2
			continue
		}
		rep, err := r.Analysis.Lint(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "modlint: %v\n", err)
			return 2
		}
		if !rep.Empty() && code == 0 {
			code = 1
		}
		files = append(files, lint.FileReport{File: names[i], Report: rep})
	}

	if c := emit(*format, files, stdout, stderr); c != 0 {
		return c
	}
	return code
}

// emit renders the collected file reports in the chosen format;
// returns 2 on a format/rendering error, 0 otherwise.
func emit(format string, files []lint.FileReport, stdout, stderr io.Writer) int {
	switch format {
	case "text":
		fmt.Fprint(stdout, lint.Text(files))
	case "json":
		out, err := lint.JSON(files)
		if err != nil {
			fmt.Fprintf(stderr, "modlint: %v\n", err)
			return 2
		}
		fmt.Fprint(stdout, out)
	case "sarif":
		out, err := lint.SARIF(files)
		if err != nil {
			fmt.Fprintf(stderr, "modlint: %v\n", err)
			return 2
		}
		fmt.Fprint(stdout, out)
	default:
		fmt.Fprintf(stderr, "modlint: -format must be text, json, or sarif, got %q\n", format)
		return 2
	}
	return 0
}

// runGo is the -lang=go path: targets are package patterns, and each
// matched package (or, with module, the one whole-module lowering)
// becomes one FileReport keyed by its path. Functions
// the frontend lowered with degraded confidence are listed on stderr
// so worst-case findings are attributable — as per-package text lines
// by default, or as one machine-readable JSON document with
// -degraded=json.
func runGo(patterns []string, module bool, format, degradedFmt string, cfg lint.Config, opts sideeffect.Options, stdout, stderr io.Writer) int {
	var results []sideeffect.GoResult
	var err error
	if module {
		var r sideeffect.GoResult
		r, err = sideeffect.AnalyzeGoModule(context.Background(), patterns, opts)
		results = []sideeffect.GoResult{r}
	} else {
		results, err = sideeffect.AnalyzeGoPackages(patterns, opts)
	}
	if err != nil {
		fmt.Fprintf(stderr, "modlint: %v\n", err)
		return 2
	}
	code := 0
	var files []lint.FileReport
	var pkgs []*gofront.Package
	for _, r := range results {
		rep, err := r.Analysis.Lint(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "modlint: %v\n", err)
			return 2
		}
		if !rep.Empty() && code == 0 {
			code = 1
		}
		files = append(files, lint.FileReport{File: r.Pkg.Path, Report: rep})
		pkgs = append(pkgs, r.Pkg)
		if degradedFmt == "text" {
			if degraded := r.Pkg.Degraded(); len(degraded) > 0 {
				fmt.Fprintf(stderr, "modlint: %s: degraded confidence (worst-case facts): %s\n",
					r.Pkg.Path, strings.Join(degraded, ", "))
			}
		}
	}
	if degradedFmt == "json" {
		out, err := gofront.DegradedJSON(pkgs)
		if err != nil {
			fmt.Fprintf(stderr, "modlint: %v\n", err)
			return 2
		}
		fmt.Fprintf(stderr, "%s\n", out)
	}
	if c := emit(format, files, stdout, stderr); c != 0 {
		return c
	}
	return code
}
