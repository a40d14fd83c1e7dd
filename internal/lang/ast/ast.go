// Package ast defines the abstract syntax tree for MiniPL programs.
//
// The tree is deliberately small: the interprocedural analyses are
// flow-insensitive, so the AST's job is to carry declarations, call
// sites, and enough expression structure to extract local side-effect
// facts (LMOD/LUSE) and regular-section subscript patterns.
package ast

import "sideeffect/internal/lang/token"

// Program is a complete MiniPL compilation unit.
type Program struct {
	Name    string
	Globals []*VarDecl
	Procs   []*ProcDecl // top-level procedure declarations, in order
	Body    *Block      // the main program body
	Pos     token.Pos
	// Shift is nil unless the parse took top-level items from the tree
	// of an earlier text (parser.ParseFrom). Such an item keeps the
	// positions of the text it was parsed from, so its nodes are shared
	// with that tree; Shift says how far each item has moved since.
	// Read positions inside an item through the accessors below.
	Shift *Shift
}

// Shift holds the line shift of every top-level item of a Program: a
// position recorded inside Globals[i], Procs[i] or Body lies Globals[i],
// Procs[i] or Body lines further down the text. Columns do not move: an
// item is only taken from an earlier text at the column it had there.
type Shift struct {
	Globals, Procs []int
	Body           int
}

// GlobalShift returns the line shift of Globals[i].
func (p *Program) GlobalShift(i int) int {
	if p.Shift == nil {
		return 0
	}
	return p.Shift.Globals[i]
}

// ProcShift returns the line shift of Procs[i], its nested procedures
// included.
func (p *Program) ProcShift(i int) int {
	if p.Shift == nil {
		return 0
	}
	return p.Shift.Procs[i]
}

// BodyShift returns the line shift of Body.
func (p *Program) BodyShift() int {
	if p.Shift == nil {
		return 0
	}
	return p.Shift.Body
}

// VarDecl declares a scalar or array variable. Dims is nil for
// scalars; each entry is a declared extent.
type VarDecl struct {
	Name string
	Dims []int
	Pos  token.Pos
}

// ParamMode distinguishes by-reference from by-value formals.
type ParamMode int

// Parameter modes.
const (
	ByRef ParamMode = iota
	ByVal
)

// String renders the mode keyword.
func (m ParamMode) String() string {
	if m == ByRef {
		return "ref"
	}
	return "val"
}

// Param declares a formal parameter. Rank > 0 declares an array
// formal of that rank (extents are assumed, Fortran-style).
type Param struct {
	Mode ParamMode
	Name string
	Rank int
	Pos  token.Pos
}

// ProcDecl declares a procedure, possibly with nested procedure
// declarations (Pascal-style lexical nesting).
type ProcDecl struct {
	Name   string
	Params []*Param
	Locals []*VarDecl
	Nested []*ProcDecl
	Body   *Block
	Pos    token.Pos
}

// Stmt is implemented by all statement nodes.
type Stmt interface{ stmt() }

// Block is a begin/end statement sequence.
type Block struct {
	Stmts []Stmt
	Pos   token.Pos
}

// Assign is `target := expr`.
type Assign struct {
	Target *VarRef
	Value  Expr
	Pos    token.Pos
}

// Call is `call p(args)`.
type Call struct {
	Name string
	Args []*Arg
	Pos  token.Pos
}

// Arg is an actual parameter. Exactly one of Section or Value is set:
// Section when the argument is a variable reference (possibly
// subscripted or with `*` section markers, legal for ref formals),
// Value for a general expression (legal only for val formals).
// The parser produces Section for any argument that is syntactically a
// variable reference so that the semantic phase can decide by the
// formal's mode.
type Arg struct {
	Section *SectionRef
	Value   Expr
	Pos     token.Pos
}

// If is `if cond then ... [else ...] end`.
type If struct {
	Cond Expr
	Then *Block
	Else *Block // nil when absent
	Pos  token.Pos
}

// While is `while cond do ... end`.
type While struct {
	Cond Expr
	Body *Block
	Pos  token.Pos
}

// For is `for i := lo to hi do ... end`. The index variable is
// modified by the loop.
type For struct {
	Index *VarRef
	Lo    Expr
	Hi    Expr
	Body  *Block
	Pos   token.Pos
}

// Repeat is `repeat ... until cond` (the body runs at least once; the
// loop exits when cond becomes true).
type Repeat struct {
	Body *Block
	Cond Expr
	Pos  token.Pos
}

// Read is `read target` (modifies the target).
type Read struct {
	Target *VarRef
	Pos    token.Pos
}

// Write is `write expr` (uses the expression).
type Write struct {
	Value Expr
	Pos   token.Pos
}

func (*Block) stmt()  {}
func (*Assign) stmt() {}
func (*Call) stmt()   {}
func (*If) stmt()     {}
func (*While) stmt()  {}
func (*For) stmt()    {}
func (*Repeat) stmt() {}
func (*Read) stmt()   {}
func (*Write) stmt()  {}

// Expr is implemented by all expression nodes.
type Expr interface{ expr() }

// IntLit is an integer literal.
type IntLit struct {
	Value int
	Pos   token.Pos
}

// VarRef is a use or definition of a variable, possibly subscripted.
type VarRef struct {
	Name string
	Subs []Expr // nil for scalars / whole-array references
	Pos  token.Pos
}

// SectionRef is a variable reference in actual-parameter position
// where each dimension is either an expression or a `*` marker
// selecting the whole extent of that dimension, e.g. A[*, j] (column
// j). Subs[i] == nil encodes `*`. A bare variable name has Subs nil.
type SectionRef struct {
	Name string
	Subs []Expr // nil slice: whole variable; nil element: `*`
	Pos  token.Pos
}

// Star reports whether dimension i of the section is a `*` marker.
func (s *SectionRef) Star(i int) bool { return s.Subs != nil && s.Subs[i] == nil }

// NumStars counts `*` dimensions. For a bare (unsubscripted) array
// reference the caller should instead use the variable's declared
// rank.
func (s *SectionRef) NumStars() int {
	n := 0
	for i := range s.Subs {
		if s.Subs[i] == nil {
			n++
		}
	}
	return n
}

// Unary is a unary operation (`-x`, `not b`).
type Unary struct {
	Op  token.Kind
	X   Expr
	Pos token.Pos
}

// Binary is a binary operation.
type Binary struct {
	Op   token.Kind
	L, R Expr
	Pos  token.Pos
}

func (*IntLit) expr()     {}
func (*VarRef) expr()     {}
func (*SectionRef) expr() {}
func (*Unary) expr()      {}
func (*Binary) expr()     {}
