package lint

import (
	"fmt"
	"slices"
	"strings"

	"sideeffect/internal/bitset"
	"sideeffect/internal/core"
	"sideeffect/internal/ir"
	"sideeffect/internal/report"
)

// Rule is one fact-driven diagnostic. Rules only read the Input. A
// rule reports compact records in any order, and the engine orders
// them and has the rule render each into its Diagnostic once.
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
	run func(in *Input, emit func(record))
	// tie, when set, gives a record the tie key that orders the rule's
	// records at one position as their (Subject, Message) would, from
	// the program's name order. It is used only once the rule's
	// findings pay for that order (ir.Program.NameOrder) and every
	// qualified name is space-free; otherwise the strings decide.
	tie func(ord *ir.NameOrder, r *record) [3]int32
	// render writes recs[slots[i]] into out[i] for a run of the rule's
	// records in adjacent slots, starting each from base, which holds
	// the rule's Rule, Name and Severity.
	render func(in *Input, base Diagnostic, recs []record, slots []int32, out []Diagnostic)
}

// each renders a run one record at a time.
func each(f func(in *Input, r *record, d *Diagnostic)) func(*Input, Diagnostic, []record, []int32, []Diagnostic) {
	return func(in *Input, base Diagnostic, recs []record, slots []int32, out []Diagnostic) {
		for k, i := range slots {
			out[k] = base
			f(in, &recs[i], &out[k])
		}
	}
}

// registry lists every rule in ID order, which is also the order of
// the findings at one position: the engine orders by a rule's index.
// IDs are append-only: a retired rule's ID is never reused (SARIF
// consumers key on it).
var registry = [...]Rule{
	{
		ID: "SE001", Name: "ref-never-modified", Default: Warning,
		Doc: "a scalar ref parameter outside RMOD is never modified; it can be declared val",
		run: ruleRefNeverModified, render: each(renderRefNeverModified),
	},
	{
		ID: "SE002", Name: "pure-procedure", Default: Info,
		Doc: "a procedure whose GMOD∪RMOD is empty outside its own frame has no caller-visible effects; calls to it may be reordered",
		run: rulePureProcedure, render: each(renderPureProcedure),
	},
	{
		ID: "SE003", Name: "alias-hazard", Default: Warning,
		Doc: "an alias pair ⟨x, y⟩ with x in a call's DMOD forces MOD to include y — the Section-5 precision loss",
		run: ruleAliasHazard, tie: tieAliasHazard, render: renderAliasHazard,
	},
	{
		ID: "SE004", Name: "dead-global", Default: Warning,
		Doc: "a global in no procedure's GMOD or GUSE is never modified or used",
		run: ruleDeadGlobal, render: each(renderDeadGlobal),
	},
	{
		ID: "SE005", Name: "ignorable-call", Default: Info,
		Doc: "a call whose MOD is disjoint from every subsequent USE has dead effects",
		run: ruleIgnorableCall, render: each(renderIgnorableCall),
	},
	{
		ID: "SE006", Name: "loop-parallelizable", Default: Info,
		Doc: "regular sections prove the loop's iterations independent; it can run in parallel",
		run: ruleLoopParallel, render: each(renderLoopParallel),
	},
	{
		ID: "SE007", Name: "loop-serial", Default: Info,
		Doc: "a loop-carried dependence (by regular sections) forces the loop to run serially",
		run: ruleLoopSerial, render: each(renderLoopSerial),
	},
}

// Rules returns the registry (copies) in ID order, for listings and
// SARIF metadata.
func Rules() []Rule { return slices.Clone(registry[:]) }

// ruleRefNeverModified flags scalar by-reference formals that RMOD
// proves are never modified through any call chain: the reference is
// gratuitous and the parameter can be passed by value. Array formals
// are skipped (MiniPL, like Fortran, has no by-value arrays). Cost: one
// RMOD lookup per formal.
func ruleRefNeverModified(in *Input, emit func(record)) {
	for _, p := range in.Prog.Procs {
		for _, f := range p.Formals {
			if f.Kind != ir.FormalRef || f.Rank() != 0 {
				continue
			}
			if in.Mod.RMOD.Of(f) {
				continue
			}
			emit(at(f.Pos, f.ID))
		}
	}
}

func renderRefNeverModified(in *Input, r *record, d *Diagnostic) {
	f := in.Prog.Vars[r.ids[0]]
	p := f.Owner
	d.Proc, d.Subject, d.Pos = p.Name, f.Name, f.Pos
	d.Message = fmt.Sprintf("ref parameter %s of %s is never modified (not in RMOD); declare it val", f.Name, p.Name)
}

// rulePureProcedure flags procedures with no effects visible to any
// caller: GMOD(p) contains nothing outside p's own frame (its locals
// and val-formal copies), which also implies no ref formal is in RMOD.
// Such calls commute with any computation and may run in any order.
// Those frame variables are distinct elements, so p is pure exactly
// when they account for all of GMOD(p). Cost: one Len per procedure
// and one lookup per local and formal.
func rulePureProcedure(in *Input, emit func(record)) {
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
			emit(at(p.Pos, p.ID))
		}
	}
}

func renderPureProcedure(in *Input, r *record, d *Diagnostic) {
	p := in.Prog.Procs[r.ids[0]]
	d.Proc, d.Subject, d.Pos = p.Name, p.Name, p.Pos
	d.Message = fmt.Sprintf("procedure %s has no caller-visible side effects (GMOD∪RMOD empty); calls to it may be reordered or parallelized", p.Name)
}

// ruleAliasHazard reports the exact precision loss of Section 5: an
// alias pair ⟨x, y⟩ holding on entry to p, together with a call site
// in p whose DMOD contains one of the two names, means the factored
// MOD set must conservatively include the other — a write through one
// name is observable through both. Cost: two DMOD lookups per pair of
// ALIAS(p) per call site of p. A record holds the site, x and y, and
// its flag is set when the hit is y.
func ruleAliasHazard(in *Input, emit func(record)) {
	for _, p := range in.Prog.Procs {
		pairs := in.Aliases.Pairs(p)
		if len(pairs) == 0 {
			continue
		}
		for _, cs := range p.Calls {
			dmod := in.Mod.DMOD[cs.ID]
			for _, pr := range pairs {
				r := at(cs.Pos, cs.ID, pr.X, pr.Y)
				switch {
				case dmod.Has(pr.X):
				case dmod.Has(pr.Y):
					r.flag = 1
				default:
					continue
				}
				emit(r)
			}
		}
	}
}

// aliasHit returns a record's hit and other name.
func aliasHit(r *record) (hit, other int32) {
	if r.flag == 1 {
		return r.ids[2], r.ids[1]
	}
	return r.ids[1], r.ids[2]
}

// tieAliasHazard keys a finding by (plain rank of the hit, qualified
// rank of x, qualified rank of y). At one call site the Subject is the
// hit's plain name and the Message begins "x and y may", so with
// space-free names the key orders as (Subject, Message) does, and
// records it ties have equal Subjects and equal x and y names.
func tieAliasHazard(ord *ir.NameOrder, r *record) [3]int32 {
	hit, _ := aliasHit(r)
	return [3]int32{int32(ord.PlainRank(int(hit))), int32(ord.Rank(int(r.ids[1]))), int32(ord.Rank(int(r.ids[2])))}
}

// renderAliasHazard renders a run of SE003 records. The messages of
// adjacent records of one call site are written into one string, which
// they share. Qualified names come from the program's name order once
// it is built.
func renderAliasHazard(in *Input, base Diagnostic, recs []record, slots []int32, out []Diagnostic) {
	const (
		and     = " and "
		widens  = "; writes are visible through both names (MOD widens to include "
		closing = ")"
	)
	vars := in.Prog.Vars
	ord := in.Prog.NameOrder(0)
	name := func(id int32) string {
		if ord != nil {
			return ord.At(ord.Position(int(id)))
		}
		return vars[id].String()
	}
	nameLen := func(id int32) int {
		if v := vars[id]; v.Owner != nil {
			return len(v.Owner.Name) + 1 + len(v.Name)
		}
		return len(vars[id].Name)
	}
	for lo := 0; lo < len(slots); {
		site := recs[slots[lo]].ids[0]
		hi := lo + 1
		for hi < len(slots) && recs[slots[hi]].ids[0] == site {
			hi++
		}
		cs := in.Prog.Sites[site]
		mid := " may be aliased on entry to " + cs.Caller.Name + " and the call to " + cs.Callee.Name + " may modify "
		// A message names x and y twice each: as the pair, and as the
		// hit and the other.
		msgLen := func(r *record) int {
			return len(and) + len(mid) + len(widens) + len(closing) + 2*(nameLen(r.ids[1])+nameLen(r.ids[2]))
		}
		size := 0
		for _, i := range slots[lo:hi] {
			size += msgLen(&recs[i])
		}
		var b strings.Builder
		b.Grow(size)
		for _, i := range slots[lo:hi] {
			r := &recs[i]
			hit, other := aliasHit(r)
			b.WriteString(name(r.ids[1]))
			b.WriteString(and)
			b.WriteString(name(r.ids[2]))
			b.WriteString(mid)
			b.WriteString(name(hit))
			b.WriteString(widens)
			b.WriteString(name(other))
			b.WriteString(closing)
		}
		all, start := b.String(), 0
		for k, i := range slots[lo:hi] {
			r := &recs[i]
			hit, _ := aliasHit(r)
			end := start + msgLen(r)
			d := &out[lo+k]
			*d = base
			d.Proc, d.Subject, d.Pos, d.Message = cs.Caller.Name, vars[hit].Name, cs.Pos, all[start:end]
			start = end
		}
		lo = hi
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
func ruleDeadGlobal(in *Input, emit func(record)) {
	live := unionGMOD(in.Prog, in.Mod, in.Use)
	for _, g := range in.Prog.Globals() {
		if !live.Has(g.ID) {
			emit(at(g.Pos, g.ID))
		}
	}
}

func renderDeadGlobal(in *Input, r *record, d *Diagnostic) {
	g := in.Prog.Vars[r.ids[0]]
	d.Subject, d.Pos = g.Name, g.Pos
	d.Message = fmt.Sprintf("global %s is never modified or used by any procedure (absent from every GMOD and GUSE); it can be removed", g.Name)
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
func ruleIgnorableCall(in *Input, emit func(record)) {
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
			emit(at(cs.Pos, cs.ID))
		}
	}
}

func renderIgnorableCall(in *Input, r *record, d *Diagnostic) {
	cs := in.Prog.Sites[r.ids[0]]
	d.Proc, d.Subject, d.Pos = cs.Caller.Name, cs.Callee.Name, cs.Pos
	d.Message = fmt.Sprintf("call to %s modifies only %s, none of which is ever used afterwards; the call's effects are dead",
		cs.Callee.Name, "{"+strings.Join(report.VarNames(in.Prog, in.ModSets[cs.ID]), ", ")+"}")
}

// ruleLoopParallel surfaces positive Section-6 verdicts: the regular
// sections of the loop body's calls are disjoint across iterations,
// so the loop parallelizes — the precision win whole-array summaries
// cannot deliver. Cost: O(1) per recorded loop, plus its evidence.
func ruleLoopParallel(in *Input, emit func(record)) {
	for i, l := range in.Loops {
		if l.Parallel {
			emit(at(l.Pos, i))
		}
	}
}

func renderLoopParallel(in *Input, r *record, d *Diagnostic) {
	l := &in.Loops[r.ids[0]]
	evidence := ""
	if len(l.Sections) > 0 {
		evidence = " (" + strings.Join(l.Sections, "; ") + ")"
	}
	d.Proc, d.Subject, d.Pos = l.Proc, l.Index, l.Pos
	d.Message = fmt.Sprintf("loop over %s: iterations are independent%s; the loop can run in parallel", l.Index, evidence)
}

// ruleLoopSerial surfaces negative Section-6 verdicts with the
// conflicting accesses as evidence. Cost: O(1) per recorded loop, plus
// its evidence.
func ruleLoopSerial(in *Input, emit func(record)) {
	for i, l := range in.Loops {
		if !l.Parallel {
			emit(at(l.Pos, i))
		}
	}
}

func renderLoopSerial(in *Input, r *record, d *Diagnostic) {
	l := &in.Loops[r.ids[0]]
	d.Proc, d.Subject, d.Pos = l.Proc, l.Index, l.Pos
	d.Message = fmt.Sprintf("loop over %s: iterations carry dependences (%s); the loop must run serially",
		l.Index, strings.Join(l.Conflicts, "; "))
}
