package report

import (
	"encoding/json"
	"fmt"
	"sort"

	"sideeffect/internal/alias"
	"sideeffect/internal/bitset"
	"sideeffect/internal/core"
	"sideeffect/internal/prof"
	"sideeffect/internal/section"
)

// JSONReport is the stable machine-readable schema for a complete
// analysis, designed for the separate-compilation scenario the paper's
// programming environment ran in: summaries computed once, stored, and
// recombined by downstream tools. Variable names are qualified as in
// ir.Variable.String ("g" for globals, "proc.x" otherwise).
type JSONReport struct {
	Program    string          `json:"program"`
	Procedures []JSONProcedure `json:"procedures"`
	CallSites  []JSONCallSite  `json:"callSites"`
	// Stages carries the per-stage profile when the analysis was run
	// with profiling on (see prof.Profile); omitted otherwise.
	Stages []prof.StageStat `json:"stages,omitempty"`
}

// Render marshals the report as indented JSON.
func (r *JSONReport) Render() (string, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", fmt.Errorf("report: %w", err)
	}
	return string(b) + "\n", nil
}

// JSONProcedure is one procedure's summary.
type JSONProcedure struct {
	Name   string `json:"name"`
	Level  int    `json:"level"`
	Parent string `json:"parent,omitempty"`
	// GMOD/GUSE are the per-procedure summary sets.
	GMOD []string `json:"gmod"`
	GUSE []string `json:"guse"`
	// RMOD lists the by-reference formals an invocation may modify.
	RMOD []string `json:"rmod,omitempty"`
	// Aliases lists the alias pairs holding on entry.
	Aliases [][2]string `json:"aliases,omitempty"`
}

// JSONCallSite is one call site's final answer.
type JSONCallSite struct {
	ID       int      `json:"id"`
	Caller   string   `json:"caller"`
	Callee   string   `json:"callee"`
	Pos      string   `json:"pos"`
	MOD      []string `json:"mod"`
	USE      []string `json:"use"`
	Sections []string `json:"sections,omitempty"`
}

// BuildJSON is BuildJSONSets for a caller that holds only the two
// problem results: it factors their DMOD rows through aliases, or
// prints the DMOD rows themselves when aliases is nil. An analysis
// holds its factored rows already (sideeffect.Analysis.JSONReport).
func BuildJSON(mod, use *core.Result, aliases *alias.Analysis, secMod *section.Result) *JSONReport {
	modSets, useSets := mod.DMOD, use.DMOD
	if aliases != nil {
		modSets, useSets = aliases.Factor(mod.DMOD), aliases.Factor(use.DMOD)
	}
	return BuildJSONSets(mod, use, aliases, secMod, modSets, useSets)
}

// BuildJSONSets assembles the report structure. mod and use must be
// the two problem results for the same program, and modSets and
// useSets the final per-call-site sets, indexed by call-site ID;
// aliases and secMod may be nil (the corresponding fields are then
// omitted).
func BuildJSONSets(mod, use *core.Result, aliases *alias.Analysis, secMod *section.Result, modSets, useSets []*bitset.Set) *JSONReport {
	prog := mod.Prog
	r := &JSONReport{Program: prog.Name}
	for _, p := range prog.Procs {
		jp := JSONProcedure{
			Name:  p.Name,
			Level: p.Level,
			GMOD:  VarNames(prog, mod.GMOD[p.ID]),
			GUSE:  VarNames(prog, use.GMOD[p.ID]),
		}
		if p.Parent != nil {
			jp.Parent = p.Parent.Name
		}
		for _, f := range p.Formals {
			if mod.RMOD.Of(f) {
				jp.RMOD = append(jp.RMOD, f.Name)
			}
		}
		if aliases != nil {
			for _, pr := range aliases.Pairs(p) {
				jp.Aliases = append(jp.Aliases,
					[2]string{prog.Vars[pr.X].String(), prog.Vars[pr.Y].String()})
			}
		}
		r.Procedures = append(r.Procedures, jp)
	}
	for _, cs := range prog.Sites {
		jc := JSONCallSite{
			ID:     cs.ID,
			Caller: cs.Caller.Name,
			Callee: cs.Callee.Name,
			Pos:    cs.Pos.String(),
			MOD:    VarNames(prog, modSets[cs.ID]),
			USE:    VarNames(prog, useSets[cs.ID]),
		}
		if secMod != nil {
			at := secMod.AtCall(cs)
			ids := make([]int, 0, len(at))
			for id := range at {
				ids = append(ids, id)
			}
			sort.Ints(ids)
			for _, id := range ids {
				jc.Sections = append(jc.Sections, at[id].Format(prog.Vars[id].Name, prog.Vars))
			}
		}
		r.CallSites = append(r.CallSites, jc)
	}
	return r
}
