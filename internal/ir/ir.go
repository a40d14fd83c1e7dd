// Package ir defines the interprocedural program model consumed by
// every analysis in this repository: procedures with lexical nesting,
// variables (globals, locals, by-reference and by-value formals), call
// sites with their actual-parameter bindings, and the flow-insensitive
// local facts the paper's equations start from (LOCAL, IMOD, IUSE).
//
// The model deliberately abstracts away statement-level control flow:
// the analyses are flow-insensitive, so all they need from a front end
// are the per-procedure "initially modified/used" variable sets, the
// call sites, and (for regular section analysis, Section 6 of the
// paper) the subscript patterns of array accesses.
//
// An ir.Program can be produced two ways: by the MiniPL semantic
// analyzer (internal/lang/sem) or directly through Builder (used by
// the synthetic workload generators).
package ir

import (
	"fmt"

	"sideeffect/internal/bitset"
	"sideeffect/internal/lang/token"
)

// VarKind classifies variables.
type VarKind int

// Variable kinds.
const (
	Global VarKind = iota
	Local
	FormalRef
	FormalVal
)

// String renders the kind.
func (k VarKind) String() string {
	switch k {
	case Global:
		return "global"
	case Local:
		return "local"
	case FormalRef:
		return "ref formal"
	case FormalVal:
		return "val formal"
	}
	return fmt.Sprintf("VarKind(%d)", int(k))
}

// Variable is a program variable. IDs are dense indices into
// Program.Vars; every bit-vector set in the analyses is indexed by
// Variable.ID.
type Variable struct {
	ID    int
	Name  string
	Kind  VarKind
	Owner *Procedure // declaring procedure; nil for globals
	// Ordinal is the 0-based formal-parameter position for formals
	// (the i of the paper's fp_i^p); -1 otherwise.
	Ordinal int
	// Dims are declared array extents; nil for scalars. Formals of
	// array rank r carry r zero extents (assumed-size, Fortran-style).
	Dims []int
	Pos  token.Pos
}

// Rank returns the array rank (0 for scalars).
func (v *Variable) Rank() int { return len(v.Dims) }

// IsGlobal reports whether v is a program-level global.
func (v *Variable) IsGlobal() bool { return v.Kind == Global }

// IsFormal reports whether v is a formal parameter of either mode.
func (v *Variable) IsFormal() bool { return v.Kind == FormalRef || v.Kind == FormalVal }

// ScopeLevel returns the "nesting-level class" of the variable for
// the multi-level global analysis of Section 4: program globals are
// class 0, and a variable declared in (or a formal of) a procedure at
// nesting level L is class L+1. A class-i variable may only be
// modified along call chains that never invoke a procedure at nesting
// level < i (invoking a shallower procedure would create a fresh
// activation of the variable).
func (v *Variable) ScopeLevel() int {
	if v.Owner == nil {
		return 0
	}
	return v.Owner.Level + 1
}

// String renders the variable as "proc.name" or "name" for globals.
func (v *Variable) String() string {
	if v.Owner == nil {
		return v.Name
	}
	return v.Owner.Name + "." + v.Name
}

// Procedure is a procedure (or the main program, which the model
// treats as an ordinary procedure per the paper's footnote 3).
type Procedure struct {
	ID     int
	Name   string
	Parent *Procedure // lexical parent; nil for top level
	Level  int        // lexical nesting depth; top level = 0
	Nested []*Procedure
	// IsMain marks the main program's body.
	IsMain  bool
	Formals []*Variable
	Locals  []*Variable
	Calls   []*CallSite // call sites textually inside this procedure

	// IMOD and IUSE are the paper's "initially modified/used" sets:
	// variables directly modified/used by the procedure's own
	// statements, ignoring all calls — indexed by Variable.ID. These
	// are the *unextended* sets; the nesting extension of Section 3.3
	// is applied by the analyses (see core.LocalFacts).
	IMOD *bitset.Set
	IUSE *bitset.Set

	// Accesses lists the array accesses made directly by this
	// procedure (for regular section analysis).
	Accesses []ArrayAccess

	Pos token.Pos
}

// Visible reports whether variable v is in scope inside p: globals,
// p's own locals/formals, and locals/formals of lexical ancestors.
func (p *Procedure) Visible(v *Variable) bool {
	if v.Owner == nil {
		return true
	}
	for q := p; q != nil; q = q.Parent {
		if q == v.Owner {
			return true
		}
	}
	return false
}

// String returns the procedure name.
func (p *Procedure) String() string { return p.Name }

// SubKind classifies an array-subscript expression for regular
// section analysis.
type SubKind int

// Subscript kinds.
const (
	// SubStar marks a whole-dimension `*` marker in an actual-argument
	// section such as A[*, j].
	SubStar SubKind = iota
	// SubConst is an integer-constant subscript.
	SubConst
	// SubSym is a single-variable subscript whose variable may be
	// usable as a symbolic regular-section coordinate.
	SubSym
	// SubOther is any more complicated expression.
	SubOther
)

// Sub is one classified subscript position.
type Sub struct {
	Kind  SubKind
	Const int       // for SubConst
	Sym   *Variable // for SubSym
}

// String renders the subscript.
func (s Sub) String() string {
	switch s.Kind {
	case SubStar:
		return "*"
	case SubConst:
		return fmt.Sprintf("%d", s.Const)
	case SubSym:
		return s.Sym.Name
	default:
		return "?"
	}
}

// ArrayAccess records one direct array reference in a procedure.
type ArrayAccess struct {
	Var  *Variable
	Subs []Sub
	// Mod is true for a definition (left-hand side, read target),
	// false for a use.
	Mod bool
	Pos token.Pos
}

// Actual is one actual parameter at a call site.
type Actual struct {
	// Mode mirrors the corresponding formal's kind (FormalRef or
	// FormalVal).
	Mode VarKind
	// Var is the root variable of the actual when the argument is a
	// variable reference, array element, or array section; nil for a
	// non-lvalue expression (legal only for val formals).
	Var *Variable
	// Subs describes the element/section shape when Var is an array:
	// one entry per dimension of Var (SubStar entries select whole
	// dimensions). nil means the whole variable is passed.
	Subs []Sub
	// Uses lists variables whose values the caller reads to evaluate
	// this argument: all variables of a val expression and all
	// subscript variables of an element/section reference.
	Uses []*Variable
}

// Rank returns the rank of the entity the actual passes: the number of
// SubStar dimensions, or the root variable's full rank for whole-
// variable references, or 0 for expressions.
func (a *Actual) Rank() int {
	if a.Var == nil {
		return 0
	}
	if a.Subs == nil {
		return a.Var.Rank()
	}
	n := 0
	for _, s := range a.Subs {
		if s.Kind == SubStar {
			n++
		}
	}
	return n
}

// CallSite is one call statement. The call multi-graph has exactly one
// edge per CallSite.
type CallSite struct {
	ID     int
	Caller *Procedure
	Callee *Procedure
	Args   []Actual
	Pos    token.Pos
}

// String renders the call site as "caller→callee#id".
func (c *CallSite) String() string {
	return fmt.Sprintf("%s→%s#%d", c.Caller.Name, c.Callee.Name, c.ID)
}

// Loop records one counted (for) loop whose body contains call
// statements, in the procedure that textually contains it. The model
// stays flow-insensitive — a Loop carries no control-flow edges — but
// the ⟨index variable, body call sites⟩ pair is exactly the question
// Section 6's regular sections answer ("can the iterations of this
// loop run in parallel?"), so the front end records it for the
// diagnostics layer.
type Loop struct {
	// Proc is the procedure whose body contains the loop statement.
	Proc *Procedure
	// Index is the loop's (scalar) induction variable.
	Index *Variable
	// Sites are the call sites textually inside the loop body,
	// including those of nested loops, in program order.
	Sites []*CallSite
	Pos   token.Pos
}

// Program is a whole-program model.
type Program struct {
	Name  string
	Vars  []*Variable
	Procs []*Procedure // Procs[Main.ID] == Main
	Main  *Procedure
	Sites []*CallSite
	// Loops are the counted loops with calls in their bodies, in
	// program order (outer loops precede the loops they contain).
	Loops []*Loop

	names names // see NameOrder
}

// NumVars returns the size of the variable universe (bit-vector
// length).
func (p *Program) NumVars() int { return len(p.Vars) }

// NumProcs returns the number of procedures including main.
func (p *Program) NumProcs() int { return len(p.Procs) }

// NumSites returns the number of call sites (E_C of the paper).
func (p *Program) NumSites() int { return len(p.Sites) }

// Globals returns the program-level global variables in ID order.
func (p *Program) Globals() []*Variable {
	var out []*Variable
	for _, v := range p.Vars {
		if v.Kind == Global {
			out = append(out, v)
		}
	}
	return out
}

// MaxLevel returns d_P, the maximum lexical nesting level of any
// procedure.
func (p *Program) MaxLevel() int {
	d := 0
	for _, q := range p.Procs {
		if q.Level > d {
			d = q.Level
		}
	}
	return d
}

// LocalSet returns the bit-vector of variables that are local to q in
// the sense of the paper's equation (4) filter: q's declared locals
// and its formals (both vanish, as names, when q returns).
func (p *Program) LocalSet(q *Procedure) *bitset.Set {
	s := bitset.New(p.NumVars())
	for _, v := range q.Locals {
		s.Add(v.ID)
	}
	for _, v := range q.Formals {
		s.Add(v.ID)
	}
	return s
}

// ReachableProcs returns, for each procedure ID, whether the procedure
// is reachable from main by some call chain (main itself included).
// The paper's algorithms assume unreachable procedures have been
// eliminated; use Prune for that.
func (p *Program) ReachableProcs() []bool {
	seen := make([]bool, len(p.Procs))
	if p.Main == nil {
		return seen
	}
	stack := []int{p.Main.ID}
	seen[p.Main.ID] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, cs := range p.Procs[v].Calls {
			if !seen[cs.Callee.ID] {
				seen[cs.Callee.ID] = true
				stack = append(stack, cs.Callee.ID)
			}
		}
	}
	return seen
}

// Proc returns the procedure with the given name, or nil.
func (p *Program) Proc(name string) *Procedure {
	for _, q := range p.Procs {
		if q.Name == name {
			return q
		}
	}
	return nil
}

// Var returns the variable with the given qualified name ("g" for a
// global, "proc.x" for a local or formal), or nil.
func (p *Program) Var(name string) *Variable {
	for _, v := range p.Vars {
		if v.String() == name {
			return v
		}
	}
	return nil
}
