package gofront

import (
	"fmt"
	"go/ast"
	gotoken "go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"

	"sideeffect/internal/ir"
	"sideeffect/internal/lang/token"
)

// lowerUnit is one package's contribution to a lowering. Single-package
// mode lowers exactly one unit; module mode lowers every module-local
// package as a unit of one shared program, in import order.
type lowerUnit struct {
	// label is the module-relative package directory ("" in
	// single-package mode); it prefixes procedure and global names and
	// tags the unit's confidence notes.
	label string
	tpkg  *types.Package
	files []*ast.File
}

// prefix is the qualifier prepended to the unit's procedure and
// global names.
func (u *lowerUnit) prefix() string {
	if u.label == "" {
		return ""
	}
	return u.label + "."
}

// lowerer lowers one or more type-checked Go packages onto an
// ir.Program.
type lowerer struct {
	path string
	fset *gotoken.FileSet
	info *types.Info
	tpkg *types.Package

	// module is true for whole-module lowerings: cross-package calls
	// resolve through the shared funcs/globals maps and interface
	// calls devirtualize against the module's named types.
	module bool
	// fileRoot, when set, makes file() return module-relative paths
	// instead of base names.
	fileRoot string
	// analyzed holds every type-checker package being lowered into
	// this program; a variable belonging to none of them is external
	// state.
	analyzed map[*types.Package]bool
	// curLabel is the label of the unit whose bodies are being
	// lowered (tags closure notes created on the way).
	curLabel string

	b *ir.Builder

	// globals maps package-level var objects to their ir globals.
	globals map[types.Object]*ir.Variable
	// external is the lazily created $external global standing for all
	// state outside the analyzed packages (other packages' vars, I/O).
	external *ir.Variable
	// allGlobals lists every ir global in creation order (for the
	// worst-case escape effect).
	allGlobals []*ir.Variable
	// funcs maps package function/method objects to their procedures.
	funcs map[types.Object]*ir.Procedure
	// addrTaken records objects whose address is taken anywhere in the
	// program (computed in a single prepass over all files).
	addrTaken map[types.Object]bool
	// importBroken lists import paths that could not be resolved; a
	// selection into one degrades the using function.
	importBroken map[string]bool

	// shapes records Go-signature facts per procedure; litProcs the
	// procedure lowered for each closure literal; litRun whether a
	// may-run site was already charged for a literal.
	shapes   map[*ir.Procedure]funcShape
	litProcs map[*ast.FuncLit]*ir.Procedure
	litRun   map[*ast.FuncLit]bool

	// namedTypes lists the module's named (non-interface, non-generic)
	// types in deterministic order, the candidate set for interface
	// devirtualization; devirtMemo caches per (interface, method)
	// resolutions; devirt counts devirtualized call sites.
	namedTypes []*types.Named
	devirtMemo map[string][]*ir.Procedure
	devirt     int

	notes   []Note
	noteIdx map[string]int // proc name → index in notes
	fileOf  map[*ir.Procedure]string
	tmpN    int // counter for fresh synthetic locals
}

func newLowerer(path string, fset *gotoken.FileSet, info *types.Info, tpkg *types.Package) *lowerer {
	return &lowerer{
		path:         path,
		fset:         fset,
		info:         info,
		tpkg:         tpkg,
		globals:      map[types.Object]*ir.Variable{},
		funcs:        map[types.Object]*ir.Procedure{},
		addrTaken:    map[types.Object]bool{},
		importBroken: map[string]bool{},
		shapes:       map[*ir.Procedure]funcShape{},
		litProcs:     map[*ast.FuncLit]*ir.Procedure{},
		litRun:       map[*ast.FuncLit]bool{},
		devirtMemo:   map[string][]*ir.Procedure{},
		noteIdx:      map[string]int{},
		fileOf:       map[*ir.Procedure]string{},
	}
}

// pos converts a Go source position to the report position model.
func (lw *lowerer) pos(p gotoken.Pos) token.Pos {
	if !p.IsValid() {
		return token.Pos{}
	}
	pp := lw.fset.Position(p)
	return token.Pos{Line: pp.Line, Col: pp.Column}
}

// file returns the base file name declaring pos (the module-relative
// path when fileRoot is set).
func (lw *lowerer) file(p gotoken.Pos) string {
	if !p.IsValid() {
		return ""
	}
	name := lw.fset.Position(p).Filename
	if lw.fileRoot != "" {
		if rel, err := filepath.Rel(lw.fileRoot, name); err == nil && !strings.HasPrefix(rel, "..") {
			return filepath.ToSlash(rel)
		}
	}
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return name
}

// ext returns the $external global, creating it on first use.
func (lw *lowerer) ext() *ir.Variable {
	if lw.external == nil {
		lw.external = lw.b.Global("$external")
		lw.allGlobals = append(lw.allGlobals, lw.external)
	}
	return lw.external
}

// mod records that proc modifies all of v. A ranked (struct-span)
// variable additionally records a whole-span star access, so the
// regular-section layer never claims a narrower effect than the
// variable-level fact: the parallelism verdicts trust sections alone
// for ranked variables.
func (lw *lowerer) mod(proc *ir.Procedure, v *ir.Variable) {
	if v.Rank() > 0 {
		lw.b.Access(proc, v, make([]ir.Sub, v.Rank()), true, token.Pos{})
		return
	}
	lw.b.Mod(proc, v)
}

// use is the read-side analog of mod.
func (lw *lowerer) use(proc *ir.Procedure, v *ir.Variable) {
	if v.Rank() > 0 {
		lw.b.Access(proc, v, make([]ir.Sub, v.Rank()), false, token.Pos{})
		return
	}
	lw.b.Use(proc, v)
}

// fieldDims returns the abstract shape of a variable of type t: a
// struct (or pointer-to-struct) variable becomes a rank-1 "field
// array" with one abstract location per field, so a write through p.F
// lowers to a constant-subscript access that the Section-6 regular
// sections refine and translate interprocedurally. Everything else is
// a scalar (nil dims).
func fieldDims(t types.Type) []int {
	if t == nil {
		return nil
	}
	u := t.Underlying()
	if p, ok := u.(*types.Pointer); ok {
		if p.Elem() == nil {
			return nil
		}
		u = p.Elem().Underlying()
	}
	s, ok := u.(*types.Struct)
	if !ok || s.NumFields() == 0 {
		return nil
	}
	return []int{s.NumFields()}
}

// degrade records a degradation reason against proc.
func (lw *lowerer) degrade(proc *ir.Procedure, reason string) {
	i, ok := lw.noteIdx[proc.Name]
	if !ok {
		return // $main and synthetic procs carry no note
	}
	lw.notes[i].Confidence = Degraded
	lw.notes[i].Reasons = append(lw.notes[i].Reasons, reason)
}

// isRefType reports whether a value of type t can reach storage shared
// with the caller: pointers, slices, maps, channels, interfaces, type
// parameters, and composites containing one. Unknown types (type
// errors) classify as references, conservatively.
func isRefType(t types.Type) bool {
	return refType(t, 0)
}

func refType(t types.Type, depth int) bool {
	if t == nil || depth > 20 {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Kind() == types.Invalid || u.Kind() == types.UnsafePointer
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Interface:
		return true
	case *types.Signature:
		// Func values carry no caller storage through the formal; the
		// effects of invoking an escaped closure are charged to its
		// creator via the may-run call site.
		return false
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if refType(u.Field(i).Type(), depth+1) {
				return true
			}
		}
		return false
	case *types.Array:
		return refType(u.Elem(), depth+1)
	case *types.Tuple:
		for i := 0; i < u.Len(); i++ {
			if refType(u.At(i).Type(), depth+1) {
				return true
			}
		}
		return false
	default:
		// *types.TypeParam and anything future: conservative.
		return true
	}
}

// lower drives a single-package lowering.
func (lw *lowerer) lower(files []*ast.File) (*ir.Program, []Note, error) {
	return lw.lowerUnits([]*lowerUnit{{tpkg: lw.tpkg, files: files}})
}

// lowerUnits drives the lowering of one or more packages into one
// shared program: globals of every unit first, then one procedure per
// declared function/method across all units, then every signature,
// then every body (so forward, mutual, and cross-package references
// resolve to real procedures).
func (lw *lowerer) lowerUnits(units []*lowerUnit) (*ir.Program, []Note, error) {
	lw.b = ir.NewBuilder(lw.path)
	main := lw.b.Main()
	lw.analyzed = map[*types.Package]bool{}
	for _, u := range units {
		if u.tpkg != nil {
			lw.analyzed[u.tpkg] = true
		}
	}
	if lw.module {
		lw.collectNamedTypes(units)
	}

	// Prepass: record every &lvalue root in every package, so locals
	// are known address-taken before any body is lowered.
	for _, u := range units {
		for _, f := range u.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if ue, ok := n.(*ast.UnaryExpr); ok && ue.Op == gotoken.AND {
					if id := rootIdent(ue.X); id != nil {
						if obj := lw.objOf(id); obj != nil {
							lw.addrTaken[obj] = true
						}
					}
				}
				return true
			})
		}
	}

	// Package-level vars become globals, in declaration order.
	type initSpec struct {
		names []types.Object
		exprs []ast.Expr
	}
	var inits []initSpec
	for _, u := range units {
		for _, f := range u.files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != gotoken.VAR {
					continue
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					var objs []types.Object
					for _, name := range vs.Names {
						obj := lw.info.Defs[name]
						if name.Name == "_" || obj == nil {
							objs = append(objs, nil)
							continue
						}
						g := lw.b.Global(u.prefix()+name.Name, fieldDims(obj.Type())...)
						g.Pos = lw.pos(name.Pos())
						lw.globals[obj] = g
						lw.allGlobals = append(lw.allGlobals, g)
						objs = append(objs, obj)
					}
					if len(vs.Values) > 0 {
						inits = append(inits, initSpec{names: objs, exprs: vs.Values})
					}
				}
			}
		}
	}

	// Declare one procedure per function and method declaration.
	type bodyWork struct {
		decl  *ast.FuncDecl
		proc  *ir.Procedure
		label string
	}
	var work []bodyWork
	nameCount := map[string]int{}
	for _, u := range units {
		for _, f := range u.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					// Body-less declarations (assembly, linkname) and
					// non-function decls carry no effects of their own.
					continue
				}
				name := u.prefix() + procName(fd)
				nameCount[name]++
				if nameCount[name] > 1 {
					name = fmt.Sprintf("%s#%d", name, nameCount[name])
				}
				proc := lw.b.Proc(name, nil)
				proc.Pos = lw.pos(fd.Pos())
				lw.fileOf[proc] = lw.file(fd.Pos())
				if obj := lw.info.Defs[fd.Name]; obj != nil {
					lw.funcs[obj] = proc
				}
				lw.noteIdx[name] = len(lw.notes)
				lw.notes = append(lw.notes, Note{Proc: name, Pkg: u.label, File: lw.fileOf[proc], Confidence: High})
				work = append(work, bodyWork{decl: fd, proc: proc, label: u.label})
			}
		}
	}

	// Declare every signature, then lower bodies in declaration order
	// (forward, mutual, and cross-package calls need final arities).
	states := make([]*procState, len(work))
	for i, w := range work {
		states[i] = lw.newProcState(w.proc, nil)
		states[i].declareSignature(w.decl.Recv, w.decl.Type)
	}
	for i, w := range work {
		lw.curLabel = w.label
		states[i].lowerBody(w.decl.Body)
	}
	lw.curLabel = ""

	// Package-variable initializers run in $main: the initialized
	// globals are modified, the read variables used, and calls inside
	// initializer expressions contribute their external effects. Units
	// are processed in import order, matching Go's initialization
	// order across packages.
	for _, is := range inits {
		for _, obj := range is.names {
			if g := lw.globals[obj]; g != nil {
				lw.mod(main, g)
			}
		}
		for _, e := range is.exprs {
			lw.initEffects(main, e)
		}
	}

	sortNotes(lw.notes)
	prog, err := lw.b.Finish()
	if err != nil {
		return nil, nil, err
	}
	return prog, lw.notes, nil
}

// collectNamedTypes gathers the module's named, non-interface,
// non-generic types in deterministic order — the closed candidate set
// interface devirtualization enumerates.
func (lw *lowerer) collectNamedTypes(units []*lowerUnit) {
	var keys []string
	byKey := map[string]*types.Named{}
	for _, u := range units {
		if u.tpkg == nil {
			continue
		}
		scope := u.tpkg.Scope()
		for _, nm := range scope.Names() {
			tn, ok := scope.Lookup(nm).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			key := u.tpkg.Path() + "." + nm
			if _, dup := byKey[key]; !dup {
				byKey[key] = named
				keys = append(keys, key)
			}
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		lw.namedTypes = append(lw.namedTypes, byKey[k])
	}
}

// devirtTargets resolves an interface method call to the procedures of
// every module-local implementing type. closed is false — meaning the
// call must degrade — when devirtualization is off (single-package
// mode), when the interface type is defined outside the module (its
// implementations are not enumerable here), when no module type
// implements it, or when some implementation's method is not a lowered
// procedure (an embedded foreign method). The closed-world assumption
// — interface values hold module-defined types — is a documented limit
// of module mode.
func (lw *lowerer) devirtTargets(selinfo *types.Selection) (procs []*ir.Procedure, closed bool) {
	if !lw.module {
		return nil, false
	}
	recv := selinfo.Recv()
	if recv == nil {
		return nil, false
	}
	if _, isTP := recv.(*types.TypeParam); isTP {
		return nil, false // constraint dispatch: the witness type is the caller's
	}
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok || iface.NumMethods() == 0 {
		return nil, false
	}
	if named, ok := recv.(*types.Named); ok {
		pkg := named.Obj().Pkg()
		if pkg == nil || !lw.analyzed[pkg] {
			return nil, false // universe (error) or foreign interface
		}
	}
	m, ok := selinfo.Obj().(*types.Func)
	if !ok {
		return nil, false
	}
	key := types.TypeString(recv, nil) + "\x00" + m.Name()
	if got, hit := lw.devirtMemo[key]; hit {
		return got, got != nil
	}
	memo := func(ps []*ir.Procedure) ([]*ir.Procedure, bool) {
		lw.devirtMemo[key] = ps
		return ps, ps != nil
	}
	for _, named := range lw.namedTypes {
		ptr := types.NewPointer(named)
		if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
			continue
		}
		msel := types.NewMethodSet(ptr).Lookup(m.Pkg(), m.Name())
		if msel == nil {
			return memo(nil)
		}
		proc, known := lw.methodProc(msel.Obj())
		if !known {
			return memo(nil)
		}
		procs = append(procs, proc)
	}
	if len(procs) == 0 {
		return memo(nil)
	}
	return memo(procs)
}

// methodProc resolves a function or method object to its lowered
// procedure, unwrapping generic instantiations to their origin.
func (lw *lowerer) methodProc(obj types.Object) (*ir.Procedure, bool) {
	if p, ok := lw.funcs[obj]; ok {
		return p, true
	}
	if f, ok := obj.(*types.Func); ok {
		if p, ok := lw.funcs[f.Origin()]; ok {
			return p, true
		}
	}
	return nil, false
}

// initEffects conservatively charges a package-variable initializer
// expression to $main: every referenced global is used, and any call
// is treated as external (initializers run before analysis scope).
func (lw *lowerer) initEffects(main *ir.Procedure, e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident:
			if g := lw.globals[lw.objOf(x)]; g != nil {
				lw.use(main, g)
			}
		case *ast.CallExpr:
			if !lw.isTypeConv(x) && builtinName(lw, x) == "" {
				lw.b.Mod(main, lw.ext())
				lw.b.Use(main, lw.ext())
			}
		case *ast.FuncLit:
			return false // too dynamic for init modeling; $external covers it
		}
		return true
	})
}

// procName names a function declaration: "F" for functions,
// "T.M" for methods (pointer receivers unwrap to the base type).
func procName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.ParenExpr:
			t = x.X
		case *ast.IndexExpr: // generic receiver T[P]
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name + "." + fd.Name.Name
		default:
			return "?." + fd.Name.Name
		}
	}
}

// objOf resolves an identifier to its object (definition or use).
func (lw *lowerer) objOf(id *ast.Ident) types.Object {
	if obj := lw.info.Uses[id]; obj != nil {
		return obj
	}
	return lw.info.Defs[id]
}

// rootIdent returns the base identifier of an lvalue path: the x of
// x, x.f, x[i], *x, and parenthesized forms; nil when the path is
// rooted in a call, literal, or other non-variable expression.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isTypeConv reports whether a call expression is actually a type
// conversion (T(x)).
func (lw *lowerer) isTypeConv(call *ast.CallExpr) bool {
	if tv, ok := lw.info.Types[call.Fun]; ok && tv.IsType() {
		return true
	}
	return false
}

// builtinName returns the name of the builtin a call invokes, or "".
func builtinName(lw *lowerer, call *ast.CallExpr) string {
	fun := call.Fun
	for {
		if p, ok := fun.(*ast.ParenExpr); ok {
			fun = p.X
			continue
		}
		break
	}
	id, ok := fun.(*ast.Ident)
	if !ok {
		return ""
	}
	if obj := lw.objOf(id); obj != nil {
		if _, ok := obj.(*types.Builtin); ok {
			return id.Name
		}
		return ""
	}
	// Unresolved (type errors): recognize by name so fuzzing inputs
	// with missing info still lower the common builtins sanely.
	switch id.Name {
	case "append", "len", "cap", "copy", "delete", "clear", "make", "new",
		"panic", "print", "println", "recover", "min", "max", "complex",
		"real", "imag", "close":
		return id.Name
	}
	return ""
}
