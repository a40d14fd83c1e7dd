// Package sideeffect is a Go implementation of Cooper & Kennedy's
// linear-time interprocedural side-effect analysis (PLDI 1988),
// together with the full pipeline the paper builds on: a small
// imperative source language (MiniPL) with by-reference parameters,
// globals, and nested procedures; the binding multi-graph RMOD
// algorithm (Figure 1 of the paper); the Tarjan-based findgmod
// algorithm for global effects (Figure 2) with the multi-level nesting
// extension (Section 4); alias factoring (Section 5); and regular
// section analysis for array subregions (Section 6).
//
// The one-call entry point analyzes MiniPL source text:
//
//	a, err := sideeffect.Analyze(src)
//	a.MOD("p")              // GMOD(p): names modified by invoking p
//	a.CallSites()           // per-call-site MOD/USE sets
//	fmt.Print(a.Report())   // complete formatted report
//
// In-module tools (cmd/, examples/) may reach the richer intermediate
// results through the exported fields, which expose the internal
// packages directly.
package sideeffect

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"sideeffect/internal/alias"
	"sideeffect/internal/batch"
	"sideeffect/internal/bitset"
	"sideeffect/internal/core"
	"sideeffect/internal/faultinject"
	"sideeffect/internal/ir"
	"sideeffect/internal/prof"
	"sideeffect/internal/report"
	"sideeffect/internal/section"
)

// Options controls how the analysis pipeline is scheduled. The zero
// value runs independent stages concurrently with GOMAXPROCS workers,
// which is the default used by Analyze.
type Options struct {
	// Workers bounds the number of concurrently executing stages (in
	// AnalyzeProgramContext) or programs (in AnalyzeAllContext and
	// AnalyzeGoPackages). Zero or negative means GOMAXPROCS. One runs
	// the classic single-goroutine pipeline: every stage in order on
	// the calling goroutine. The result is identical either way — only
	// the schedule changes.
	Workers int
	// Profile, when true, records per-stage wall time (and, on a
	// sequential run, allocation counts) in Analysis.Stages and tags
	// each stage's execution with a pprof "stage" label.
	Profile bool
	// Faults, when non-nil, injects deterministic seed-driven faults at
	// the pipeline's stage boundaries for chaos testing (see
	// internal/faultinject). Every entry point honours it: an injected
	// error or panic comes back as an error (AnalyzeProgramWith, which
	// has no error result, re-panics it). Production runs leave this
	// nil.
	Faults *faultinject.Injector
}

// workers resolves the options to a concrete positive worker count.
// This is the single normalization point for the whole public API: a
// positive Workers is taken as-is, and zero or negative Workers fall
// back to GOMAXPROCS — a negative value is treated as "unset" here and
// never reaches the pools.
func (o Options) workers() int { return batch.Workers(o.Workers) }

// Analysis bundles the complete side-effect solution for one program.
type Analysis struct {
	// Prog is the analyzed program model.
	Prog *ir.Program
	// Mod and Use are the two flow-insensitive problems' full results
	// (RMOD/IMOD+/GMOD/DMOD and the USE-side analogs).
	Mod, Use *core.Result
	// Aliases is the Section 5 alias-pair analysis.
	Aliases *alias.Analysis
	// SecMod and SecUse are the Section 6 regular-section results.
	SecMod, SecUse *section.Result
	// ModSets and UseSets are the final per-call-site answers,
	// DMOD/DUSE extended with aliases (equation (2) + Section 5). Where
	// aliasing adds nothing to a site, its row is the DMOD/DUSE row
	// itself. Like every result row, they are read-only.
	ModSets, UseSets []*bitset.Set
	// Stages holds the per-stage profile when the analysis ran with
	// Options.Profile; nil otherwise. Stage names are hierarchical:
	// "mod.gmod", "use.rmod", "sections.mod.formals", "factor.mod", …
	Stages *prof.Profile
	// Degraded reports that the first attempt died with a captured
	// panic and this Analysis came from the retry on one worker (see
	// AnalyzeProgramContext).
	Degraded bool
}

// GMODWork sums the findgmod work counters of both problems across
// every nesting level: the Theorem-2 step counts plus the
// condensed-storage counters (CondensedRows materialized, zero-copy
// SharedRowHits). modan -profile and the modand metrics read it.
func (a *Analysis) GMODWork() core.GMODStats {
	var t core.GMODStats
	for _, r := range []*core.Result{a.Mod, a.Use} {
		if r == nil {
			continue
		}
		for _, s := range r.GMODStats {
			t.Accumulate(s)
		}
	}
	return t
}

// Analyze parses, checks, and analyzes MiniPL source text, running
// both the MOD and USE problems, alias factoring, and regular section
// analysis. Procedures unreachable from the main program are pruned
// first, as the paper assumes. It is AnalyzeContext with no deadline
// and the default options.
func Analyze(src string) (*Analysis, error) {
	return AnalyzeContext(context.Background(), src, Options{})
}

// AnalyzeWith is AnalyzeContext with no deadline.
func AnalyzeWith(src string, opts Options) (*Analysis, error) {
	return AnalyzeContext(context.Background(), src, opts)
}

// AnalyzeProgramWith is AnalyzeProgramContext with no deadline, for
// callers that want fail-fast behavior: having no error result, it
// re-raises a captured panic as the *batch.PanicError it was, and
// panics with any other error (an injected one, under Options.Faults).
// It is the one entry point that can panic.
func AnalyzeProgramWith(prog *ir.Program, opts Options) *Analysis {
	a, err := AnalyzeProgramContext(context.Background(), prog, opts)
	if err != nil {
		var pe *batch.PanicError
		if errors.As(err, &pe) {
			panic(pe)
		}
		panic(err)
	}
	return a
}

// BatchResult is one program's outcome from AnalyzeAllContext: either
// a completed Analysis or the error that stopped it.
type BatchResult struct {
	Analysis *Analysis
	Err      error
}

// Procedures returns the procedure names in declaration order (main
// first, as "$main").
func (a *Analysis) Procedures() []string {
	out := make([]string, 0, a.Prog.NumProcs())
	for _, p := range a.Prog.Procs {
		out = append(out, p.Name)
	}
	return out
}

func (a *Analysis) proc(name string) (*ir.Procedure, error) {
	p := a.Prog.Proc(name)
	if p == nil {
		return nil, fmt.Errorf("sideeffect: no procedure %q", name)
	}
	return p, nil
}

// MOD returns GMOD(proc): the qualified names of variables whose
// values an invocation of proc may modify, sorted by qualified name;
// nil when the set is empty. Repeated queries on one analysis share
// the program's name order once it pays for itself (report.VarNames).
func (a *Analysis) MOD(proc string) ([]string, error) {
	p, err := a.proc(proc)
	if err != nil {
		return nil, err
	}
	return report.VarNames(a.Prog, a.Mod.GMOD[p.ID]), nil
}

// USE returns GUSE(proc): the qualified names of variables whose
// values an invocation of proc may use, sorted by qualified name; nil
// when the set is empty.
func (a *Analysis) USE(proc string) ([]string, error) {
	p, err := a.proc(proc)
	if err != nil {
		return nil, err
	}
	return report.VarNames(a.Prog, a.Use.GMOD[p.ID]), nil
}

// RMOD returns the names of proc's by-reference formal parameters that
// an invocation may modify.
func (a *Analysis) RMOD(proc string) ([]string, error) {
	p, err := a.proc(proc)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, f := range p.Formals {
		if a.Mod.RMOD.Of(f) {
			out = append(out, f.Name)
		}
	}
	return out, nil
}

// CallSite describes one call site's final analysis results.
type CallSite struct {
	// Caller and Callee are procedure names; Pos is the source
	// position ("line:col") when the program came from source.
	Caller, Callee, Pos string
	// MOD and USE are the per-call-site sets after alias factoring.
	MOD, USE []string
	// Sections lists the array-subregion refinements for MOD, e.g.
	// "A(*, j)".
	Sections []string
}

// CallSites returns the final per-call-site results in program order.
func (a *Analysis) CallSites() []CallSite {
	out := make([]CallSite, 0, a.Prog.NumSites())
	for _, cs := range a.Prog.Sites {
		c := CallSite{
			Caller: cs.Caller.Name,
			Callee: cs.Callee.Name,
			Pos:    cs.Pos.String(),
			MOD:    report.VarNames(a.Prog, a.ModSets[cs.ID]),
			USE:    report.VarNames(a.Prog, a.UseSets[cs.ID]),
		}
		at := a.SecMod.AtCall(cs)
		ids := make([]int, 0, len(at))
		for id := range at {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			c.Sections = append(c.Sections, at[id].Format(a.Prog.Vars[id].Name, a.Prog.Vars))
		}
		out = append(out, c)
	}
	return out
}

// Report renders the complete human-readable analysis report.
func (a *Analysis) Report() string {
	return report.Full(a.Mod, a.Use, a.Aliases, a.SecMod, a.ModSets, a.UseSets)
}

// JSONReport assembles the machine-readable report of the analysis,
// with its own factored sets as the call sites' MOD and USE.
func (a *Analysis) JSONReport() *report.JSONReport {
	return report.BuildJSONSets(a.Mod, a.Use, a.Aliases, a.SecMod, a.ModSets, a.UseSets)
}
