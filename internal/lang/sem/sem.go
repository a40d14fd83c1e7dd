// Package sem performs name resolution and semantic checking of
// MiniPL syntax trees and lowers them to the ir.Program model.
//
// Scoping rules (Pascal-style):
//   - program globals are visible everywhere;
//   - a procedure sees its own formals and locals, then those of its
//     lexical ancestors, then the globals (inner declarations shadow
//     outer ones);
//   - a procedure may call: procedures declared in the same scope
//     (including itself — recursion and mutual recursion are legal),
//     procedures nested immediately within it, and procedures visible
//     in any enclosing scope. Forward references are permitted.
//
// Semantic rules enforced here:
//   - no duplicate declaration within one scope;
//   - subscript count equals declared rank; scalars take no subscripts;
//   - whole arrays and array sections appear only as ref actuals;
//   - val formals are scalars, and val actuals are scalar expressions;
//   - a ref actual is an lvalue whose rank matches the formal's rank
//     (the number of `*` markers of a section, the declared rank of a
//     whole-array reference, 0 for an element or scalar).
package sem

import (
	"errors"
	"fmt"
	"slices"

	"sideeffect/internal/ir"
	"sideeffect/internal/lang/ast"
	"sideeffect/internal/lang/parser"
	"sideeffect/internal/lang/token"
)

// Analyze resolves and lowers a parsed program. On error the returned
// program is nil and the error joins every diagnostic found.
func Analyze(prog *ast.Program) (*ir.Program, error) {
	a := &analyzer{b: ir.NewBuilder(prog.Name)}
	a.run(prog)
	if len(a.errs) > 0 {
		return nil, errors.Join(a.errs...)
	}
	p, err := a.b.Finish()
	if err != nil {
		return nil, err
	}
	return p, nil
}

// AnalyzeSource parses and analyzes MiniPL source text in one step.
func AnalyzeSource(src string) (*ir.Program, error) {
	tree, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	return Analyze(tree)
}

type analyzer struct {
	b    *ir.Builder
	errs []error
	// shift is the line shift of the top-level item being resolved
	// (ast.Program.Shift), added to every position copied into the IR
	// or into a diagnostic.
	shift int
}

// at returns pos where it lies in the text: moved by the item's shift.
func (a *analyzer) at(pos token.Pos) token.Pos {
	pos.Line += a.shift
	return pos
}

func (a *analyzer) errorf(pos token.Pos, format string, args ...any) {
	a.errs = append(a.errs, fmt.Errorf("%s: sem: %s", a.at(pos), fmt.Sprintf(format, args...)))
}

// scope is a chain of visible declarations for one procedure body.
type scope struct {
	parent *scope
	proc   *ir.Procedure // procedure owning this scope; nil for the program scope
	vars   map[string]*ir.Variable
	// procsByName maps callee names visible at this level: nested
	// procedures of proc (or top-level procedures for the program
	// scope) plus proc itself.
	procsByName map[string]*ir.Procedure
}

func (s *scope) lookupVar(name string) *ir.Variable {
	for sc := s; sc != nil; sc = sc.parent {
		if v, ok := sc.vars[name]; ok {
			return v
		}
	}
	return nil
}

func (s *scope) lookupProc(name string) *ir.Procedure {
	for sc := s; sc != nil; sc = sc.parent {
		if p, ok := sc.procsByName[name]; ok {
			return p
		}
	}
	return nil
}

func (a *analyzer) run(prog *ast.Program) {
	root := &scope{
		vars:        make(map[string]*ir.Variable, len(prog.Globals)),
		procsByName: make(map[string]*ir.Procedure, len(prog.Procs)),
	}
	for i, g := range prog.Globals {
		a.shift = prog.GlobalShift(i)
		if _, dup := root.vars[g.Name]; dup {
			a.errorf(g.Pos, "duplicate global %q", g.Name)
			continue
		}
		v := a.b.Global(g.Name, g.Dims...)
		v.Pos = a.at(g.Pos)
		root.vars[g.Name] = v
	}
	// Declare all top-level procedures first (forward references),
	// then their bodies. decl[i] is prog.Procs[i]'s procedure, nil for
	// a duplicate.
	decl := make([]*ir.Procedure, len(prog.Procs))
	for i, pd := range prog.Procs {
		a.shift = prog.ProcShift(i)
		if _, dup := root.procsByName[pd.Name]; dup {
			a.errorf(pd.Pos, "duplicate procedure %q", pd.Name)
			continue
		}
		decl[i] = a.declareProc(pd, nil, root)
	}
	for i, pd := range prog.Procs {
		if decl[i] != nil {
			a.shift = prog.ProcShift(i)
			a.procBody(pd, decl[i], root)
		}
	}
	// Main body executes in the program scope.
	main := a.b.Main()
	main.Pos = prog.Pos
	a.shift = prog.BodyShift()
	if prog.Body != nil {
		main.Pos = a.at(prog.Body.Pos)
	}
	// The main body declares nothing: its scope's maps stay nil.
	mainScope := &scope{parent: root, proc: main}
	if prog.Body != nil {
		a.block(prog.Body, main, mainScope)
	}
}

// declareProc creates the ir.Procedure and its formal parameters (the
// header), so that calls from siblings declared earlier in the same
// scope resolve with the right arity before pd's own body is visited.
func (a *analyzer) declareProc(pd *ast.ProcDecl, parent *ir.Procedure, enclosing *scope) *ir.Procedure {
	p := a.b.Proc(pd.Name, parent)
	p.Pos = a.at(pd.Pos)
	enclosing.procsByName[pd.Name] = p
	for _, prm := range pd.Params {
		if slices.ContainsFunc(p.Formals, func(f *ir.Variable) bool { return f.Name == prm.Name }) {
			a.errorf(prm.Pos, "duplicate parameter %q in %s", prm.Name, pd.Name)
			continue
		}
		kind := ir.FormalRef
		if prm.Mode == ast.ByVal {
			kind = ir.FormalVal
			if prm.Rank > 0 {
				a.errorf(prm.Pos, "val parameter %q of %s cannot be an array", prm.Name, pd.Name)
			}
		}
		v := a.b.Formal(p, prm.Name, kind, prm.Rank)
		v.Pos = a.at(prm.Pos)
	}
	return p
}

// procBody resolves the declarations and statements of pd.
func (a *analyzer) procBody(pd *ast.ProcDecl, p *ir.Procedure, enclosing *scope) {
	sc := &scope{parent: enclosing, proc: p,
		vars:        make(map[string]*ir.Variable, len(p.Formals)+len(pd.Locals)),
		procsByName: make(map[string]*ir.Procedure, 1+len(pd.Nested)),
	}
	sc.procsByName[pd.Name] = p // direct recursion
	for _, v := range p.Formals {
		sc.vars[v.Name] = v
	}
	for _, ld := range pd.Locals {
		if _, dup := sc.vars[ld.Name]; dup {
			a.errorf(ld.Pos, "duplicate local %q in %s", ld.Name, pd.Name)
			continue
		}
		v := a.b.Local(p, ld.Name, ld.Dims...)
		v.Pos = a.at(ld.Pos)
		sc.vars[ld.Name] = v
	}
	decl := make([]*ir.Procedure, len(pd.Nested))
	for i, nd := range pd.Nested {
		if _, dup := sc.procsByName[nd.Name]; dup && nd.Name != pd.Name {
			a.errorf(nd.Pos, "duplicate nested procedure %q in %s", nd.Name, pd.Name)
			continue
		}
		decl[i] = a.declareProc(nd, p, sc)
	}
	for i, nd := range pd.Nested {
		if decl[i] != nil {
			a.procBody(nd, decl[i], sc)
		}
	}
	if pd.Body != nil {
		a.block(pd.Body, p, sc)
	}
}

func (a *analyzer) block(b *ast.Block, p *ir.Procedure, sc *scope) {
	for _, s := range b.Stmts {
		a.stmt(s, p, sc)
	}
}

func (a *analyzer) stmt(s ast.Stmt, p *ir.Procedure, sc *scope) {
	switch s := s.(type) {
	case *ast.Block:
		a.block(s, p, sc)
	case *ast.Assign:
		a.target(s.Target, p, sc)
		a.expr(s.Value, p, sc)
	case *ast.Read:
		a.target(s.Target, p, sc)
	case *ast.Write:
		a.expr(s.Value, p, sc)
	case *ast.If:
		a.expr(s.Cond, p, sc)
		a.block(s.Then, p, sc)
		if s.Else != nil {
			a.block(s.Else, p, sc)
		}
	case *ast.While:
		a.expr(s.Cond, p, sc)
		a.block(s.Body, p, sc)
	case *ast.Repeat:
		a.block(s.Body, p, sc)
		a.expr(s.Cond, p, sc)
	case *ast.For:
		v := a.resolveVar(s.Index.Name, s.Index.Pos, sc)
		if v != nil {
			if v.Rank() != 0 {
				a.errorf(s.Index.Pos, "for-loop index %q is an array", v.Name)
				v = nil
			} else {
				a.b.Mod(p, v)
				a.b.Use(p, v) // the loop reads the index to test the bound
			}
		}
		a.expr(s.Lo, p, sc)
		a.expr(s.Hi, p, sc)
		// Every call site created while the body is resolved is
		// textually inside the loop (procedure declarations cannot
		// appear in statement position, so all new sites belong to p).
		nSites := len(p.Calls)
		a.block(s.Body, p, sc)
		if v != nil && len(p.Calls) > nSites {
			a.b.Loop(p, v, p.Calls[nSites:len(p.Calls):len(p.Calls)], a.at(s.Pos))
		}
	case *ast.Call:
		a.call(s, p, sc)
	default:
		panic(fmt.Sprintf("sem: unknown statement %T", s))
	}
}

func (a *analyzer) resolveVar(name string, pos token.Pos, sc *scope) *ir.Variable {
	v := sc.lookupVar(name)
	if v == nil {
		a.errorf(pos, "undeclared variable %q", name)
	}
	return v
}

// target processes a definition of a variable (assignment LHS, read,
// loop index).
func (a *analyzer) target(t *ast.VarRef, p *ir.Procedure, sc *scope) {
	v := a.resolveVar(t.Name, t.Pos, sc)
	if v == nil {
		return
	}
	if len(t.Subs) != v.Rank() {
		a.errorf(t.Pos, "%q has rank %d, got %d subscripts", v.Name, v.Rank(), len(t.Subs))
		return
	}
	if v.Rank() == 0 {
		a.b.Mod(p, v)
		return
	}
	subs := a.subList(t.Subs, p, sc)
	a.b.Access(p, v, subs, true, a.at(t.Pos))
}

// subList classifies subscript expressions and records their uses.
func (a *analyzer) subList(exprs []ast.Expr, p *ir.Procedure, sc *scope) []ir.Sub {
	subs := make([]ir.Sub, 0, len(exprs))
	for _, e := range exprs {
		subs = append(subs, a.subOf(e, p, sc))
	}
	return subs
}

func (a *analyzer) subOf(e ast.Expr, p *ir.Procedure, sc *scope) ir.Sub {
	switch e := e.(type) {
	case *ast.IntLit:
		return ir.Sub{Kind: ir.SubConst, Const: e.Value}
	case *ast.VarRef:
		if len(e.Subs) == 0 {
			v := a.resolveVar(e.Name, e.Pos, sc)
			if v == nil {
				return ir.Sub{Kind: ir.SubOther}
			}
			if v.Rank() != 0 {
				a.errorf(e.Pos, "array %q used as a subscript", v.Name)
				return ir.Sub{Kind: ir.SubOther}
			}
			return ir.Sub{Kind: ir.SubSym, Sym: v}
		}
	}
	// General expression: record its uses and classify as opaque.
	a.expr(e, p, sc)
	return ir.Sub{Kind: ir.SubOther}
}

// expr records the uses (and array read accesses) of an expression.
func (a *analyzer) expr(e ast.Expr, p *ir.Procedure, sc *scope) {
	switch e := e.(type) {
	case *ast.IntLit:
	case *ast.VarRef:
		v := a.resolveVar(e.Name, e.Pos, sc)
		if v == nil {
			return
		}
		if len(e.Subs) != v.Rank() {
			if v.Rank() > 0 && len(e.Subs) == 0 {
				a.errorf(e.Pos, "whole array %q cannot appear in an expression", v.Name)
			} else {
				a.errorf(e.Pos, "%q has rank %d, got %d subscripts", v.Name, v.Rank(), len(e.Subs))
			}
			return
		}
		if v.Rank() == 0 {
			a.b.Use(p, v)
			return
		}
		subs := a.subList(e.Subs, p, sc)
		a.b.Access(p, v, subs, false, a.at(e.Pos))
	case *ast.SectionRef:
		a.errorf(e.Pos, "array section %q cannot appear in an expression", e.Name)
	case *ast.Unary:
		a.expr(e.X, p, sc)
	case *ast.Binary:
		a.expr(e.L, p, sc)
		a.expr(e.R, p, sc)
	default:
		panic(fmt.Sprintf("sem: unknown expression %T", e))
	}
}

// exprUses collects the scalar variables read by an expression,
// delegating the fact recording to expr; it additionally returns the
// list for attachment to an Actual.
func (a *analyzer) exprUses(e ast.Expr, sc *scope) []*ir.Variable {
	var uses []*ir.Variable
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.IntLit:
		case *ast.VarRef:
			if v := sc.lookupVar(e.Name); v != nil {
				uses = append(uses, v)
			}
			for _, s := range e.Subs {
				walk(s)
			}
		case *ast.Unary:
			walk(e.X)
		case *ast.Binary:
			walk(e.L)
			walk(e.R)
		}
	}
	walk(e)
	return uses
}

func (a *analyzer) call(c *ast.Call, p *ir.Procedure, sc *scope) {
	callee := sc.lookupProc(c.Name)
	if callee == nil {
		a.errorf(c.Pos, "call to undeclared procedure %q", c.Name)
		return
	}
	if len(c.Args) != len(callee.Formals) {
		a.errorf(c.Pos, "call to %s: %d arguments for %d parameters",
			callee.Name, len(c.Args), len(callee.Formals))
		return
	}
	args := make([]ir.Actual, 0, len(c.Args))
	bad := false
	for i, arg := range c.Args {
		f := callee.Formals[i]
		var act ir.Actual
		act.Mode = f.Kind
		switch f.Kind {
		case ir.FormalRef:
			if arg.Section == nil {
				a.errorf(arg.Pos, "call to %s: argument %d must be a variable (ref parameter %s)",
					callee.Name, i+1, f.Name)
				bad = true
				continue
			}
			v := a.resolveVar(arg.Section.Name, arg.Section.Pos, sc)
			if v == nil {
				bad = true
				continue
			}
			act.Var = v
			if arg.Section.Subs != nil {
				if len(arg.Section.Subs) != v.Rank() {
					a.errorf(arg.Section.Pos, "%q has rank %d, got %d subscripts",
						v.Name, v.Rank(), len(arg.Section.Subs))
					bad = true
					continue
				}
				act.Subs = make([]ir.Sub, 0, len(arg.Section.Subs))
				for di, se := range arg.Section.Subs {
					if arg.Section.Star(di) {
						act.Subs = append(act.Subs, ir.Sub{Kind: ir.SubStar})
						continue
					}
					sub := a.subOf(se, p, sc)
					if sub.Kind == ir.SubSym {
						act.Uses = append(act.Uses, sub.Sym)
					} else if sub.Kind == ir.SubOther {
						act.Uses = append(act.Uses, a.exprUses(se, sc)...)
					}
					act.Subs = append(act.Subs, sub)
				}
			}
			if act.Rank() != f.Rank() {
				a.errorf(arg.Pos, "call to %s: argument %d has rank %d, parameter %s has rank %d",
					callee.Name, i+1, act.Rank(), f.Name, f.Rank())
				bad = true
				continue
			}
		case ir.FormalVal:
			var e ast.Expr
			if arg.Section != nil {
				if arg.Section.NumStars() > 0 {
					a.errorf(arg.Pos, "call to %s: array section passed to val parameter %s",
						callee.Name, f.Name)
					bad = true
					continue
				}
				e = &ast.VarRef{Name: arg.Section.Name, Subs: arg.Section.Subs, Pos: arg.Section.Pos}
			} else {
				e = arg.Value
			}
			// Validate and record facts in the caller, then collect the
			// use list for the Actual.
			a.expr(e, p, sc)
			if vr, ok := e.(*ast.VarRef); ok && len(vr.Subs) == 0 {
				if v := sc.lookupVar(vr.Name); v != nil {
					if v.Rank() > 0 {
						bad = true
						continue // already diagnosed by expr
					}
					act.Var = v
				}
			}
			act.Uses = a.exprUses(e, sc)
		}
		args = append(args, act)
	}
	if bad {
		return
	}
	a.b.Call(p, callee, args, a.at(c.Pos))
}
