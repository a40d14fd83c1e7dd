package ir

import (
	"fmt"

	"sideeffect/internal/bitset"
	"sideeffect/internal/lang/token"
)

// Builder constructs Programs with dense, consistent IDs. It is used
// by the MiniPL semantic analyzer and by the synthetic workload
// generators. Methods panic on structural misuse (these are internal
// construction bugs, not user-input errors; user-input validation
// happens in the semantic analyzer).
type Builder struct {
	prog     *Program
	finished bool
}

// NewBuilder starts a program named name and creates its main
// procedure.
func NewBuilder(name string) *Builder {
	b := &Builder{prog: &Program{Name: name}}
	main := &Procedure{ID: 0, Name: "$main", IsMain: true, IMOD: bitset.NewSparse(), IUSE: bitset.NewSparse()}
	b.prog.Procs = append(b.prog.Procs, main)
	b.prog.Main = main
	return b
}

// Main returns the program's main procedure.
func (b *Builder) Main() *Procedure { return b.prog.Main }

func (b *Builder) addVar(v *Variable) *Variable {
	v.ID = len(b.prog.Vars)
	b.prog.Vars = append(b.prog.Vars, v)
	return v
}

// Global declares a program-level global variable.
func (b *Builder) Global(name string, dims ...int) *Variable {
	return b.addVar(&Variable{Name: name, Kind: Global, Ordinal: -1, Dims: dims})
}

// Proc declares a procedure. parent is the lexical parent (nil for a
// top-level declaration; pass b.Main() to nest inside the main
// program's scope only if the language allows it — MiniPL does not,
// so sem always passes nil or another procedure).
func (b *Builder) Proc(name string, parent *Procedure) *Procedure {
	p := &Procedure{
		ID:   len(b.prog.Procs),
		Name: name,
		IMOD: bitset.NewSparse(),
		IUSE: bitset.NewSparse(),
	}
	if parent != nil {
		p.Parent = parent
		p.Level = parent.Level + 1
		parent.Nested = append(parent.Nested, p)
	}
	b.prog.Procs = append(b.prog.Procs, p)
	return p
}

// Formal declares the next formal parameter of p. kind must be
// FormalRef or FormalVal; rank > 0 declares an array formal.
func (b *Builder) Formal(p *Procedure, name string, kind VarKind, rank int) *Variable {
	if kind != FormalRef && kind != FormalVal {
		panic(fmt.Sprintf("ir: Formal(%s.%s): kind %v", p.Name, name, kind))
	}
	dims := make([]int, rank)
	v := b.addVar(&Variable{Name: name, Kind: kind, Owner: p, Ordinal: len(p.Formals), Dims: dims})
	p.Formals = append(p.Formals, v)
	return v
}

// Local declares a local variable of p.
func (b *Builder) Local(p *Procedure, name string, dims ...int) *Variable {
	v := b.addVar(&Variable{Name: name, Kind: Local, Owner: p, Ordinal: -1, Dims: dims})
	p.Locals = append(p.Locals, v)
	return v
}

// Mod records that p's own statements modify v (contributes to
// IMOD(p)).
func (b *Builder) Mod(p *Procedure, v *Variable) {
	p.IMOD.Add(v.ID)
}

// Use records that p's own statements use v (contributes to IUSE(p)).
func (b *Builder) Use(p *Procedure, v *Variable) {
	p.IUSE.Add(v.ID)
}

// Access records a direct array access of p for regular section
// analysis (and also records the Mod/Use fact).
func (b *Builder) Access(p *Procedure, v *Variable, subs []Sub, mod bool, pos token.Pos) {
	p.Accesses = append(p.Accesses, ArrayAccess{Var: v, Subs: subs, Mod: mod, Pos: pos})
	if mod {
		b.Mod(p, v)
	} else {
		b.Use(p, v)
	}
	for _, s := range subs {
		if s.Kind == SubSym {
			b.Use(p, s.Sym)
		}
	}
}

// Loop records a counted loop in p over index variable index whose
// body contains the given call sites. Loops without calls are not
// recorded (no interprocedural question arises).
func (b *Builder) Loop(p *Procedure, index *Variable, sites []*CallSite, pos token.Pos) *Loop {
	if index.Rank() != 0 {
		panic(fmt.Sprintf("ir: Loop in %s: index %s is an array", p.Name, index))
	}
	l := &Loop{Proc: p, Index: index, Sites: sites, Pos: pos}
	b.prog.Loops = append(b.prog.Loops, l)
	return l
}

// Call records a call site in caller invoking callee with the given
// actuals. Actual arity must match callee's formal arity.
func (b *Builder) Call(caller, callee *Procedure, args []Actual, pos token.Pos) *CallSite {
	if len(args) != len(callee.Formals) {
		panic(fmt.Sprintf("ir: call %s→%s: %d actuals for %d formals",
			caller.Name, callee.Name, len(args), len(callee.Formals)))
	}
	cs := &CallSite{
		ID:     len(b.prog.Sites),
		Caller: caller,
		Callee: callee,
		Args:   args,
		Pos:    pos,
	}
	b.prog.Sites = append(b.prog.Sites, cs)
	caller.Calls = append(caller.Calls, cs)
	// Argument evaluation happens in the caller: record the uses.
	for _, a := range args {
		for _, u := range a.Uses {
			b.Use(caller, u)
		}
	}
	return cs
}

// Finish validates and returns the program. The Builder must not be
// used afterwards.
func (b *Builder) Finish() (*Program, error) {
	if b.finished {
		return nil, fmt.Errorf("ir: Finish called twice")
	}
	b.finished = true
	if err := b.prog.Validate(); err != nil {
		return nil, err
	}
	return b.prog, nil
}

// MustFinish is Finish for construction paths (generators, tests)
// where a validation failure is a bug.
func (b *Builder) MustFinish() *Program {
	p, err := b.Finish()
	if err != nil {
		panic(err)
	}
	return p
}

// Validate checks internal consistency of the program model: dense
// IDs, argument/formal arity and mode agreement, visibility of actual
// variables at their call sites, and scope sanity of IMOD/IUSE.
func (p *Program) Validate() error {
	for i, v := range p.Vars {
		if v.ID != i {
			return fmt.Errorf("ir: variable %q has ID %d at index %d", v.Name, v.ID, i)
		}
		if v.IsFormal() != (v.Ordinal >= 0) {
			return fmt.Errorf("ir: variable %s: ordinal %d inconsistent with kind %v", v, v.Ordinal, v.Kind)
		}
	}
	for i, q := range p.Procs {
		if q.ID != i {
			return fmt.Errorf("ir: procedure %q has ID %d at index %d", q.Name, q.ID, i)
		}
		if q.Parent != nil && q.Level != q.Parent.Level+1 {
			return fmt.Errorf("ir: procedure %s: level %d under parent level %d", q.Name, q.Level, q.Parent.Level)
		}
		for j, f := range q.Formals {
			if f.Ordinal != j || f.Owner != q {
				return fmt.Errorf("ir: formal %s of %s misnumbered", f.Name, q.Name)
			}
		}
		var badIMOD error
		check := func(set *bitset.Set, what string) {
			set.ForEach(func(id int) {
				if badIMOD != nil {
					return
				}
				if id >= len(p.Vars) {
					badIMOD = fmt.Errorf("ir: %s(%s) contains out-of-range variable %d", what, q.Name, id)
					return
				}
				if !q.Visible(p.Vars[id]) {
					badIMOD = fmt.Errorf("ir: %s(%s) contains invisible variable %s", what, q.Name, p.Vars[id])
				}
			})
		}
		check(q.IMOD, "IMOD")
		check(q.IUSE, "IUSE")
		if badIMOD != nil {
			return badIMOD
		}
	}
	for i, cs := range p.Sites {
		if cs.ID != i {
			return fmt.Errorf("ir: call site %s has ID %d at index %d", cs, cs.ID, i)
		}
		if len(cs.Args) != len(cs.Callee.Formals) {
			return fmt.Errorf("ir: call site %s: arity mismatch", cs)
		}
		for j, a := range cs.Args {
			f := cs.Callee.Formals[j]
			if a.Mode != f.Kind {
				return fmt.Errorf("ir: call site %s arg %d: mode %v for formal kind %v", cs, j, a.Mode, f.Kind)
			}
			if a.Mode == FormalRef && a.Var == nil {
				return fmt.Errorf("ir: call site %s arg %d: ref actual is not a variable", cs, j)
			}
			if a.Var != nil && !cs.Caller.Visible(a.Var) {
				return fmt.Errorf("ir: call site %s arg %d: %s not visible in %s", cs, j, a.Var, cs.Caller.Name)
			}
			if a.Var != nil && a.Subs != nil && len(a.Subs) != a.Var.Rank() {
				return fmt.Errorf("ir: call site %s arg %d: %d subscripts for rank-%d %s",
					cs, j, len(a.Subs), a.Var.Rank(), a.Var)
			}
			if a.Mode == FormalRef && a.Rank() != f.Rank() {
				return fmt.Errorf("ir: call site %s arg %d: rank %d actual for rank %d formal",
					cs, j, a.Rank(), f.Rank())
			}
		}
	}
	for _, l := range p.Loops {
		if l.Index.Rank() != 0 {
			return fmt.Errorf("ir: loop at %s: index %s is an array", l.Pos, l.Index)
		}
		if !l.Proc.Visible(l.Index) {
			return fmt.Errorf("ir: loop at %s: index %s not visible in %s", l.Pos, l.Index, l.Proc.Name)
		}
		for _, cs := range l.Sites {
			if cs.Caller != l.Proc {
				return fmt.Errorf("ir: loop at %s in %s contains site %s of another procedure",
					l.Pos, l.Proc.Name, cs)
			}
		}
	}
	return nil
}

// Prune returns a copy of the program with every procedure that is
// unreachable from main removed (along with its variables and call
// sites), implementing the linear-time clean-up step the paper assumes
// before the nesting arguments of Section 3.3. The original program is
// not modified.
//
// The copy renumbers the variables: globals first, then each kept
// procedure's formals and locals, in procedure order. Every slice of
// the copy is sized from the source program, and the old-to-new maps
// are slices indexed by the old IDs.
func (p *Program) Prune() *Program {
	reach := p.ReachableProcs()
	// A nested procedure's parent chain must be retained even if the
	// parent is itself unreachable as a call target... by the paper's
	// argument this cannot happen for reachable children (a nested
	// procedure is reachable only through its parent's scope), but we
	// keep the model consistent regardless.
	for _, q := range p.Procs {
		if reach[q.ID] {
			for a := q.Parent; a != nil && !reach[a.ID]; a = a.Parent {
				reach[a.ID] = true
			}
		}
	}
	nProcs, nVars, nSites, nArgs := 0, 0, 0, 0
	for _, q := range p.Procs {
		if reach[q.ID] {
			nProcs++
			nVars += len(q.Formals) + len(q.Locals)
		}
	}
	for _, v := range p.Vars {
		if v.Kind == Global {
			nVars++
		}
	}
	for _, cs := range p.Sites {
		if reach[cs.Caller.ID] && reach[cs.Callee.ID] {
			nSites++
			nArgs += len(cs.Args)
		}
	}

	np := &Program{
		Name:  p.Name,
		Procs: make([]*Procedure, 0, nProcs),
		Vars:  make([]*Variable, 0, nVars),
		Sites: make([]*CallSite, 0, nSites),
	}
	procMap := make([]*Procedure, len(p.Procs))
	varMap := make([]*Variable, len(p.Vars))
	siteMap := make([]*CallSite, len(p.Sites))
	// The copy's variables, call sites and actuals are carved from one
	// slab each.
	varSlab, siteSlab, argSlab := make([]Variable, nVars), make([]CallSite, nSites), make([]Actual, nArgs)
	newVar := func(v *Variable, owner *Procedure) *Variable {
		nv := &varSlab[len(np.Vars)]
		*nv = Variable{ID: len(np.Vars), Name: v.Name, Kind: v.Kind, Owner: owner, Ordinal: v.Ordinal, Dims: v.Dims, Pos: v.Pos}
		np.Vars = append(np.Vars, nv)
		varMap[v.ID] = nv
		return nv
	}
	mapSubs := func(subs []Sub) []Sub {
		if len(subs) == 0 {
			return nil
		}
		out := make([]Sub, len(subs))
		for i, s := range subs {
			if s.Kind == SubSym {
				s.Sym = varMap[s.Sym.ID]
			}
			out[i] = s
		}
		return out
	}

	// Clone procedures in original ID order (parents precede children
	// in MiniPL construction order; guard anyway).
	var cloneProc func(q *Procedure) *Procedure
	cloneProc = func(q *Procedure) *Procedure {
		if n := procMap[q.ID]; n != nil {
			return n
		}
		n := &Procedure{
			Name:   q.Name,
			IsMain: q.IsMain,
			Level:  q.Level,
			Pos:    q.Pos,
			IMOD:   bitset.NewSparse(),
			IUSE:   bitset.NewSparse(),
		}
		procMap[q.ID] = n
		if q.Parent != nil {
			par := cloneProc(q.Parent)
			n.Parent = par
			par.Nested = append(par.Nested, n)
		}
		n.ID = len(np.Procs)
		np.Procs = append(np.Procs, n)
		return n
	}
	// Keep globals (even unused ones: they are part of the universe).
	for _, v := range p.Vars {
		if v.Kind == Global {
			newVar(v, nil)
		}
	}
	for _, q := range p.Procs {
		if !reach[q.ID] {
			continue
		}
		n := cloneProc(q)
		if len(q.Formals) > 0 {
			n.Formals = make([]*Variable, len(q.Formals))
			for i, f := range q.Formals {
				n.Formals[i] = newVar(f, n)
			}
		}
		if len(q.Locals) > 0 {
			n.Locals = make([]*Variable, len(q.Locals))
			for i, l := range q.Locals {
				n.Locals[i] = newVar(l, n)
			}
		}
	}
	if p.Main != nil {
		np.Main = procMap[p.Main.ID]
	}
	// Second pass: facts and call sites.
	for _, q := range p.Procs {
		if !reach[q.ID] {
			continue
		}
		n := procMap[q.ID]
		q.IMOD.ForEach(func(id int) {
			if nv := varMap[id]; nv != nil {
				n.IMOD.Add(nv.ID)
			}
		})
		q.IUSE.ForEach(func(id int) {
			if nv := varMap[id]; nv != nil {
				n.IUSE.Add(nv.ID)
			}
		})
		if len(q.Accesses) > 0 {
			n.Accesses = make([]ArrayAccess, len(q.Accesses))
			for i, acc := range q.Accesses {
				n.Accesses[i] = ArrayAccess{Var: varMap[acc.Var.ID], Subs: mapSubs(acc.Subs), Mod: acc.Mod, Pos: acc.Pos}
			}
		}
		if calls := len(q.Calls); calls > 0 {
			n.Calls = make([]*CallSite, 0, calls)
		}
	}
	for _, cs := range p.Sites {
		if !reach[cs.Caller.ID] || !reach[cs.Callee.ID] {
			continue
		}
		ncs := &siteSlab[len(np.Sites)]
		*ncs = CallSite{
			ID:     len(np.Sites),
			Caller: procMap[cs.Caller.ID],
			Callee: procMap[cs.Callee.ID],
			Pos:    cs.Pos,
		}
		siteMap[cs.ID] = ncs
		if n := len(cs.Args); n > 0 {
			ncs.Args, argSlab = argSlab[:n:n], argSlab[n:]
			for i, a := range cs.Args {
				na := Actual{Mode: a.Mode, Subs: mapSubs(a.Subs)}
				if a.Var != nil {
					na.Var = varMap[a.Var.ID]
				}
				if len(a.Uses) > 0 {
					na.Uses = make([]*Variable, len(a.Uses))
					for j, u := range a.Uses {
						na.Uses[j] = varMap[u.ID]
					}
				}
				ncs.Args[i] = na
			}
		}
		np.Sites = append(np.Sites, ncs)
		ncs.Caller.Calls = append(ncs.Caller.Calls, ncs)
	}
	// Loops survive when their owning procedure does; sites whose
	// callee was pruned drop out of the loop body (the call could never
	// execute, so it cannot carry a dependence).
	for _, l := range p.Loops {
		if !reach[l.Proc.ID] {
			continue
		}
		nl := &Loop{Proc: procMap[l.Proc.ID], Index: varMap[l.Index.ID], Pos: l.Pos}
		for _, cs := range l.Sites {
			if ncs := siteMap[cs.ID]; ncs != nil {
				nl.Sites = append(nl.Sites, ncs)
			}
		}
		if len(nl.Sites) > 0 {
			np.Loops = append(np.Loops, nl)
		}
	}
	return np
}
