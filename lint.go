package sideeffect

import (
	"fmt"

	"sideeffect/internal/batch"
	"sideeffect/internal/lint"
)

// Lint runs the interprocedural diagnostics engine over a completed
// analysis: every fact the pipeline computed — GMOD/GUSE summaries,
// RMOD, alias pairs, per-call-site MOD/USE, and the Section-6 loop
// verdicts — is turned into positioned findings (pass-by-value
// candidates, pure procedures, alias hazards, dead globals, ignorable
// calls, and loop parallelizability). The zero Config runs every rule
// at its default severity.
//
// The returned report is deterministic: repeated calls on the same
// analysis, and calls on an independently recomputed analysis of the
// same source, produce identical diagnostics in identical order. An
// error reports a configuration mistake (unknown rule name), never a
// property of the program — or a panic in a rule, which comes back as
// an error wrapping *batch.PanicError: Lint never panics.
//
// Rendering (text, JSON, SARIF 2.1.0) is the lint package's job; see
// cmd/modlint for the command-line driver and internal/server for the
// /lint endpoint.
//
// Lint only reads the analysis. A run is timed only when cfg.Prof is
// set: per-rule timings go there, under "lint.<rule-id>" names, never
// into Analysis.Stages.
func (a *Analysis) Lint(cfg lint.Config) (rep *lint.Report, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			rep, err = nil, fmt.Errorf("sideeffect: lint failed: %w", batch.Capture(rec))
		}
	}()
	return lint.Run(a.lintInput(), cfg)
}

// lintInput gathers the facts the rules read from the analysis.
func (a *Analysis) lintInput() *lint.Input {
	in := &lint.Input{
		Prog:    a.Prog,
		Mod:     a.Mod,
		Use:     a.Use,
		Aliases: a.Aliases,
		ModSets: a.ModSets,
		UseSets: a.UseSets,
	}
	for _, l := range a.Prog.Loops {
		v := a.loopVerdict(l.Index, l.Sites)
		in.Loops = append(in.Loops, lint.LoopInfo{
			Proc:      l.Proc.Name,
			Index:     l.Index.Name,
			Pos:       l.Pos,
			Parallel:  v.Parallel,
			Conflicts: v.Conflicts,
			Sections:  v.Sections,
		})
	}
	return in
}
