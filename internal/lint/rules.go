package lint

import (
	"fmt"
	"strings"

	"sideeffect/internal/bitset"
	"sideeffect/internal/core"
	"sideeffect/internal/ir"
	"sideeffect/internal/report"
)

// Rule is one fact-driven diagnostic. Rules only read the Input; they
// emit findings in any order (the engine sorts).
type Rule struct {
	// ID is the stable identifier ("SE001"); Name the readable slug
	// used in configuration and SARIF.
	ID   string
	Name string
	// Default is the severity before configuration overrides.
	Default Severity
	// Doc is the one-line description shown by `modlint -list` and
	// carried as SARIF rule metadata.
	Doc string
	run func(in *Input, emit func(Diagnostic))
}

// registry lists every rule in ID order. IDs are append-only: a
// retired rule's ID is never reused (SARIF consumers key on it).
var registry = []Rule{
	{
		ID: "SE001", Name: "ref-never-modified", Default: Warning,
		Doc: "a scalar ref parameter outside RMOD is never modified; it can be declared val",
		run: ruleRefNeverModified,
	},
	{
		ID: "SE002", Name: "pure-procedure", Default: Info,
		Doc: "a procedure whose GMOD∪RMOD is empty outside its own frame has no caller-visible effects; calls to it may be reordered",
		run: rulePureProcedure,
	},
	{
		ID: "SE003", Name: "alias-hazard", Default: Warning,
		Doc: "an alias pair ⟨x, y⟩ with x in a call's DMOD forces MOD to include y — the Section-5 precision loss",
		run: ruleAliasHazard,
	},
	{
		ID: "SE004", Name: "dead-global", Default: Warning,
		Doc: "a global in no procedure's GMOD or GUSE is never modified or used",
		run: ruleDeadGlobal,
	},
	{
		ID: "SE005", Name: "ignorable-call", Default: Info,
		Doc: "a call whose MOD is disjoint from every subsequent USE has dead effects",
		run: ruleIgnorableCall,
	},
	{
		ID: "SE006", Name: "loop-parallelizable", Default: Info,
		Doc: "regular sections prove the loop's iterations independent; it can run in parallel",
		run: ruleLoopParallel,
	},
	{
		ID: "SE007", Name: "loop-serial", Default: Info,
		Doc: "a loop-carried dependence (by regular sections) forces the loop to run serially",
		run: ruleLoopSerial,
	},
}

// Rules returns the registry (copies) in ID order, for listings and
// SARIF metadata.
func Rules() []Rule {
	out := make([]Rule, len(registry))
	copy(out, registry)
	return out
}

// ruleRefNeverModified flags scalar by-reference formals that RMOD
// proves are never modified through any call chain: the reference is
// gratuitous and the parameter can be passed by value. Array formals
// are skipped (MiniPL, like Fortran, has no by-value arrays). Cost: one
// RMOD lookup per formal.
func ruleRefNeverModified(in *Input, emit func(Diagnostic)) {
	for _, p := range in.Prog.Procs {
		for _, f := range p.Formals {
			if f.Kind != ir.FormalRef || f.Rank() != 0 {
				continue
			}
			if in.Mod.RMOD.Of(f) {
				continue
			}
			emit(Diagnostic{
				Proc: p.Name, Subject: f.Name, Pos: f.Pos,
				Message: fmt.Sprintf("ref parameter %s of %s is never modified (not in RMOD); declare it val",
					f.Name, p.Name),
			})
		}
	}
}

// rulePureProcedure flags procedures with no effects visible to any
// caller: GMOD(p) contains nothing outside p's own frame (its locals
// and val-formal copies), which also implies no ref formal is in RMOD.
// Such calls commute with any computation and may run in any order.
// Those frame variables are distinct elements, so p is pure exactly
// when they account for all of GMOD(p). Cost: one Len per procedure
// and one lookup per local and formal.
func rulePureProcedure(in *Input, emit func(Diagnostic)) {
	for _, p := range in.Prog.Procs {
		if p.IsMain {
			continue
		}
		gmod := in.Mod.GMOD[p.ID]
		own := 0
		for _, vs := range [2][]*ir.Variable{p.Locals, p.Formals} {
			for _, v := range vs {
				if v.Kind != ir.FormalRef && gmod.Has(v.ID) {
					own++
				}
			}
		}
		if own == gmod.Len() {
			emit(Diagnostic{
				Proc: p.Name, Subject: p.Name, Pos: p.Pos,
				Message: fmt.Sprintf("procedure %s has no caller-visible side effects (GMOD∪RMOD empty); calls to it may be reordered or parallelized",
					p.Name),
			})
		}
	}
}

// ruleAliasHazard reports the exact precision loss of Section 5: an
// alias pair ⟨x, y⟩ holding on entry to p, together with a call site
// in p whose DMOD contains one of the two names, means the factored
// MOD set must conservatively include the other — a write through one
// name is observable through both. Cost: two DMOD lookups per pair of
// ALIAS(p) per call site of p, and one concatenated message per
// finding, each variable's display name built once per run.
func ruleAliasHazard(in *Input, emit func(Diagnostic)) {
	names := make([]string, len(in.Prog.Vars))
	name := func(id int) string {
		if names[id] == "" {
			names[id] = in.Prog.Vars[id].String()
		}
		return names[id]
	}
	for _, p := range in.Prog.Procs {
		pairs := in.Aliases.Pairs(p)
		if len(pairs) == 0 {
			continue
		}
		for _, cs := range p.Calls {
			dmod := in.Mod.DMOD[cs.ID]
			for _, pr := range pairs {
				hit, other := pr.X, pr.Y
				switch {
				case dmod.Has(pr.X):
				case dmod.Has(pr.Y):
					hit, other = pr.Y, pr.X
				default:
					continue
				}
				emit(Diagnostic{
					Proc: p.Name, Subject: in.Prog.Vars[hit].Name, Pos: cs.Pos,
					Message: name(pr.X) + " and " + name(pr.Y) + " may be aliased on entry to " + p.Name +
						" and the call to " + cs.Callee.Name + " may modify " + name(hit) +
						"; writes are visible through both names (MOD widens to include " + name(other) + ")",
				})
			}
		}
	}
}

// unionGMOD returns the union of GMOD(p) over every procedure p, for
// each result given: N unions per result.
func unionGMOD(prog *ir.Program, results ...*core.Result) *bitset.Set {
	u := bitset.New(prog.NumVars())
	for _, p := range prog.Procs {
		for _, r := range results {
			u.UnionWith(r.GMOD[p.ID])
		}
	}
	return u
}

// ruleDeadGlobal flags globals that appear in no procedure's GMOD or
// GUSE: nothing reachable ever modifies or reads them. Cost: 2N unions,
// then one lookup per global.
func ruleDeadGlobal(in *Input, emit func(Diagnostic)) {
	live := unionGMOD(in.Prog, in.Mod, in.Use)
	for _, g := range in.Prog.Globals() {
		if !live.Has(g.ID) {
			emit(Diagnostic{
				Subject: g.Name, Pos: g.Pos,
				Message: fmt.Sprintf("global %s is never modified or used by any procedure (absent from every GMOD and GUSE); it can be removed",
					g.Name),
			})
		}
	}
}

// ruleIgnorableCall flags call sites whose (alias-factored) MOD set is
// disjoint from every use the caller can still make: the caller's own
// direct uses, the USE sets of its other call sites, and — for values
// that outlive the caller's frame — any use anywhere in the program.
// Everything such a call computes is dead. The check is the
// flow-insensitive over-approximation of "subsequent USE": uses
// textually before the call also count, which only suppresses
// findings, never fabricates them.
//
// Cost: N unions for the program-wide uses, then per call site at most
// two copy-and-difference steps into one scratch set, each followed by
// an intersection test, and one intersection test. Per procedure, the
// frame set costs one insertion per local and formal; once and sure
// cost four set operations per call site, and only for a procedure
// where the program-wide test leaves some call undecided. Four sets
// serve the whole run.
func ruleIgnorableCall(in *Input, emit func(Diagnostic)) {
	usedAnywhere := unionGMOD(in.Prog, in.Use)
	// frame holds p's locals and val formals: what dies with p's frame.
	// once holds what any call site of p uses. sure holds what p uses
	// whichever of its calls is asked about: its own statements' uses
	// and whatever two or more of its call sites use. The uses by the
	// calls of p other than s are then sure ∪ (once ∖ USE(s)).
	frame, once, sure, scratch := bitset.NewSparse(), bitset.New(0), bitset.New(0), bitset.New(0)
	for _, p := range in.Prog.Procs {
		if len(p.Calls) == 0 {
			continue
		}
		frame.Clear()
		for _, vs := range [2][]*ir.Variable{p.Locals, p.Formals} {
			for _, v := range vs {
				if v.Kind != ir.FormalRef {
					frame.Add(v.ID)
				}
			}
		}
		usesKnown := false
		for _, cs := range p.Calls {
			mod := in.ModSets[cs.ID]
			if mod.Empty() {
				continue // no effects at all: SE002 territory
			}
			// A variable that outlives p's frame (a global, an
			// outer-scope variable, or a ref formal bound to a
			// caller's variable) must be unused program-wide.
			scratch.CopyFrom(mod)
			scratch.DifferenceWith(frame)
			if scratch.Intersects(usedAnywhere) {
				continue
			}
			if !usesKnown {
				once.Clear()
				sure.CopyFrom(p.IUSE)
				for _, c := range p.Calls {
					use := in.UseSets[c.ID]
					scratch.CopyFrom(once)
					scratch.IntersectWith(use)
					sure.UnionWith(scratch)
					once.UnionWith(use)
				}
				usesKnown = true
			}
			if mod.Intersects(sure) {
				continue
			}
			scratch.CopyFrom(mod)
			scratch.DifferenceWith(in.UseSets[cs.ID])
			if scratch.Intersects(once) {
				continue
			}
			emit(Diagnostic{
				Proc: p.Name, Subject: cs.Callee.Name, Pos: cs.Pos,
				Message: fmt.Sprintf("call to %s modifies only %s, none of which is ever used afterwards; the call's effects are dead",
					cs.Callee.Name, "{"+strings.Join(report.VarNames(in.Prog, mod), ", ")+"}"),
			})
		}
	}
}

// ruleLoopParallel surfaces positive Section-6 verdicts: the regular
// sections of the loop body's calls are disjoint across iterations,
// so the loop parallelizes — the precision win whole-array summaries
// cannot deliver. Cost: O(1) per recorded loop, plus its evidence.
func ruleLoopParallel(in *Input, emit func(Diagnostic)) {
	for _, l := range in.Loops {
		if !l.Parallel {
			continue
		}
		evidence := ""
		if len(l.Sections) > 0 {
			evidence = " (" + strings.Join(l.Sections, "; ") + ")"
		}
		emit(Diagnostic{
			Proc: l.Proc, Subject: l.Index, Pos: l.Pos,
			Message: fmt.Sprintf("loop over %s: iterations are independent%s; the loop can run in parallel",
				l.Index, evidence),
		})
	}
}

// ruleLoopSerial surfaces negative Section-6 verdicts with the
// conflicting accesses as evidence. Cost: O(1) per recorded loop, plus
// its evidence.
func ruleLoopSerial(in *Input, emit func(Diagnostic)) {
	for _, l := range in.Loops {
		if l.Parallel {
			continue
		}
		emit(Diagnostic{
			Proc: l.Proc, Subject: l.Index, Pos: l.Pos,
			Message: fmt.Sprintf("loop over %s: iterations carry dependences (%s); the loop must run serially",
				l.Index, strings.Join(l.Conflicts, "; ")),
		})
	}
}
