// Package parser implements a recursive-descent parser for MiniPL.
//
// The parser is error-tolerant: it accumulates diagnostics and
// synchronizes at statement boundaries, so a single Parse call reports
// as many independent errors as it can find. Semicolons between
// statements are accepted but optional (statement boundaries are
// unambiguous in the grammar).
package parser

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"sideeffect/internal/lang/ast"
	"sideeffect/internal/lang/lexer"
	"sideeffect/internal/lang/token"
)

const maxErrors = 25

// Parser holds parsing state for one source unit. It pulls tokens from
// the lexer one at a time and holds only the current one.
type Parser struct {
	lex  *lexer.Lexer
	tok  token.Token
	errs []error // parse errors; the lexer keeps its own

	// When a tree is kept (ParseFrom), src is the text, prev the tree
	// its items may come from and tree the tree being built. An item of
	// prev is looked for at cursor, just past the last one found, and
	// only then by key through index, built on first use.
	src        string
	prev, tree *Tree
	cursor     int
	index      map[itemKey]int
}

// Parse parses a complete MiniPL program. On any syntax error it
// returns a non-nil error (the errors joined); the returned Program
// may still be partially populated for tooling that wants a best
// effort tree.
//
// Every lexical error of src comes first in the error, in source
// order, then as many parse errors as fit in maxErrors with them. The
// error budget counts the lexical errors seen so far and the parse
// errors; once it is spent, parsing stops and the rest of the input is
// only lexed.
func Parse(src string) (*ast.Program, error) {
	return (&Parser{lex: lexer.New(src)}).parse()
}

// ParseFrom is Parse for an edited text, given the tree of the text
// before the edit (the zero Tree when there is none): it returns the
// new text's tree, whose program and errors are exactly Parse's, and
// which a later ParseFrom can take items from in turn.
//
// The unit of reuse is a top-level item: a global declaration, a
// procedure with its nested procedures, or the main block, from its
// keyword to its last token. An item of prev is taken, without lexing
// its text again, where the new text has an item of the same kind and
// leading name (a procedure's, the first global's) that starts at the
// same column and whose bytes equal the old item's, and the next byte
// does not continue its last token. Only items that parsed without any
// lexical or syntax error are kept, and a taken item's nodes are
// prev's: the new program records how many lines each item moved
// (ast.Program.Shift). Identifiers parsed here are copies, not
// substrings of src, so items handed from tree to tree keep none of the
// texts they were parsed from alive; a tree holds only its own text.
func ParseFrom(src string, prev *Tree) (*Tree, error) {
	p := &Parser{lex: lexer.New(src), src: src, prev: prev,
		tree: &Tree{src: src, items: make([]item, 0, len(prev.items))}}
	p.lex.Copying()
	prog, err := p.parse()
	p.tree.Prog = prog
	return p.tree, err
}

func (p *Parser) parse() (*ast.Program, error) {
	p.tok = p.lex.Next()
	prog := p.parseProgram()
	for p.tok.Kind != token.EOF {
		p.tok = p.lex.Next()
	}
	lexErrs := p.lex.Errors()
	if len(lexErrs)+len(p.errs) == 0 {
		return prog, nil
	}
	keep := max(0, min(len(p.errs), maxErrors-len(lexErrs)))
	return prog, errors.Join(append(lexErrs, p.errs[:keep]...)...)
}

// Tree is a parsed program kept for the parse of its next edit
// (ParseFrom): the program, its text, and where in that text each of
// its top-level items lies that parsed without an error. Its zero
// value is a tree with no items. A Tree is never written once built.
type Tree struct {
	Prog  *ast.Program
	src   string
	items []item
}

// itemKey finds an item of the previous tree: its kind (GLOBAL, PROC
// or BEGIN) and leading name.
type itemKey struct {
	kind token.Kind
	name string
}

// item is one top-level item of a Tree that parsed without an error.
type item struct {
	itemKey
	start, end int // its text is src[start:end]
	line, col  int // the position of its first byte
	lines      int // the newlines in its text
	endCol     int // the column just past its last byte
	shift      int // its nodes' positions lie shift lines above line's
	globals    []*ast.VarDecl
	proc       *ast.ProcDecl
	body       *ast.Block
}

// Items returns how many top-level items the tree keeps for reuse.
func (t *Tree) Items() int { return len(t.items) }

// parseItem parses the top-level item of the given kind at the current
// token with parse, which sets its node. When a tree is kept, it takes
// the item from the previous tree instead if it can, and records a
// parsed item in the tree being built unless an error was reported
// while it was parsed. An error in the lookahead token beyond the item
// counts too, which only keeps an item out that could have been kept.
func (p *Parser) parseItem(kind token.Kind, parse func(it *item)) item {
	if p.tree == nil {
		var it item
		parse(&it)
		return it
	}
	if it, ok := p.take(kind); ok {
		return it
	}
	it := item{itemKey: itemKey{kind: kind}, start: p.lex.Start(), line: p.tok.Pos.Line, col: p.tok.Pos.Col}
	errs := len(p.lex.Errors()) + len(p.errs)
	parse(&it)
	if len(p.lex.Errors())+len(p.errs) == errs {
		p.keep(it)
	}
	return it
}

// keep records it, a parsed item the parser has just consumed, in the
// tree being built. The key's name is the parsed one, a copy, so the
// tree's keys hold no substring of the text.
func (p *Parser) keep(it item) {
	switch it.kind {
	case token.GLOBAL:
		it.name = it.globals[0].Name
	case token.PROC:
		it.name = it.proc.Name
	}
	it.end = p.lex.End()
	text := p.src[it.start:it.end]
	it.lines = strings.Count(text, "\n")
	if it.lines == 0 {
		it.endCol = it.col + len(text)
	} else {
		it.endCol = len(text) - strings.LastIndexByte(text, '\n')
	}
	p.tree.items = append(p.tree.items, it)
}

// take looks in the previous tree for the item that starts at the
// current token: the same kind, name and column, and the same bytes,
// with no word byte right after them that would join the item's last
// token. On a match it moves the lexer past the item, keeps the item in
// the tree being built at its new place, and returns it.
func (p *Parser) take(kind token.Kind) (item, bool) {
	key := itemKey{kind: kind}
	if kind != token.BEGIN {
		key.name = p.lex.Peek()
	}
	k := p.cursor
	if k >= len(p.prev.items) || p.prev.items[k].itemKey != key {
		if p.index == nil {
			p.index = make(map[itemKey]int, len(p.prev.items))
			for k, it := range p.prev.items {
				p.index[it.itemKey] = k
			}
		}
		var ok bool
		if k, ok = p.index[key]; !ok {
			return item{}, false
		}
	}
	p.cursor = k + 1
	old := p.prev.items[k]
	start := p.lex.Start()
	end := start + old.end - old.start
	if old.col != p.tok.Pos.Col || end > len(p.src) ||
		p.src[start:end] != p.prev.src[old.start:old.end] ||
		end < len(p.src) && lexer.IsWordByte(p.src[end]) && lexer.IsWordByte(p.src[end-1]) {
		return item{}, false
	}
	it := old
	it.start, it.end = start, end
	it.line = p.tok.Pos.Line
	it.shift = old.shift + it.line - old.line
	p.lex.Jump(end, it.line+it.lines, it.endCol)
	p.tok = p.lex.Next()
	p.tree.items = append(p.tree.items, it)
	return it, true
}

type bailout struct{}

func (p *Parser) errorf(pos token.Pos, format string, args ...any) {
	n := len(p.lex.Errors()) + len(p.errs)
	if n < maxErrors {
		p.errs = append(p.errs, fmt.Errorf("%s: parse: %s", pos, fmt.Sprintf(format, args...)))
		n++
	}
	if n >= maxErrors {
		panic(bailout{})
	}
}

func (p *Parser) cur() token.Token { return p.tok }

func (p *Parser) at(k token.Kind) bool { return p.cur().Kind == k }

func (p *Parser) next() token.Token {
	t := p.tok
	if t.Kind != token.EOF {
		p.tok = p.lex.Next()
	}
	return t
}

func (p *Parser) accept(k token.Kind) bool {
	if p.at(k) {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expect(k token.Kind) token.Token {
	if p.at(k) {
		return p.next()
	}
	p.errorf(p.cur().Pos, "expected %s, found %s", k, p.cur())
	return token.Token{Kind: k, Pos: p.cur().Pos}
}

// sync skips tokens until a likely statement boundary.
func (p *Parser) sync() {
	for {
		switch p.cur().Kind {
		case token.EOF, token.SEMICOLON, token.END, token.BEGIN,
			token.PROC, token.ELSE, token.UNTIL:
			return
		}
		p.next()
	}
}

func (p *Parser) parseProgram() (prog *ast.Program) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(bailout); !ok {
				panic(r)
			}
			if prog == nil {
				prog = &ast.Program{Name: "<error>"}
			}
		}
	}()
	prog = &ast.Program{Pos: p.cur().Pos}
	if p.tree != nil {
		prog.Shift = &ast.Shift{}
	}
	p.expect(token.PROGRAM)
	prog.Name = p.expect(token.IDENT).Text
	p.expect(token.SEMICOLON)
	for {
		switch p.cur().Kind {
		case token.GLOBAL:
			it := p.parseItem(token.GLOBAL, func(it *item) { it.globals = p.parseGlobalDecl() })
			prog.Globals = append(prog.Globals, it.globals...)
			if prog.Shift != nil {
				for range it.globals {
					prog.Shift.Globals = append(prog.Shift.Globals, it.shift)
				}
			}
		case token.PROC:
			it := p.parseItem(token.PROC, func(it *item) { it.proc = p.parseProcDecl() })
			prog.Procs = append(prog.Procs, it.proc)
			if prog.Shift != nil {
				prog.Shift.Procs = append(prog.Shift.Procs, it.shift)
			}
			p.accept(token.SEMICOLON) // optional ';' after 'end'
		case token.BEGIN:
			it := p.parseItem(token.BEGIN, func(it *item) { it.body = p.parseBlock() })
			prog.Body = it.body
			if prog.Shift != nil {
				prog.Shift.Body = it.shift
			}
			p.expect(token.PERIOD)
			if !p.at(token.EOF) {
				p.errorf(p.cur().Pos, "trailing input after final '.'")
			}
			return prog
		case token.EOF:
			p.errorf(p.cur().Pos, "missing main 'begin ... end.' block")
			return prog
		default:
			p.errorf(p.cur().Pos, "expected 'global', 'proc', or 'begin', found %s", p.cur())
			p.sync()
			if p.at(token.SEMICOLON) {
				p.next()
			}
		}
	}
}

func (p *Parser) parseGlobalDecl() []*ast.VarDecl {
	p.expect(token.GLOBAL)
	var out []*ast.VarDecl
	for {
		out = append(out, p.parseVarSpec())
		if !p.accept(token.COMMA) {
			break
		}
	}
	p.expect(token.SEMICOLON)
	return out
}

func (p *Parser) parseVarSpec() *ast.VarDecl {
	t := p.expect(token.IDENT)
	d := &ast.VarDecl{Name: t.Text, Pos: t.Pos}
	if p.accept(token.LBRACKET) {
		for {
			it := p.expect(token.INT)
			n, err := strconv.Atoi(it.Text)
			if err != nil || n <= 0 {
				p.errorf(it.Pos, "invalid array extent %q", it.Text)
				n = 1
			}
			d.Dims = append(d.Dims, n)
			if !p.accept(token.COMMA) {
				break
			}
		}
		p.expect(token.RBRACKET)
	}
	return d
}

func (p *Parser) parseProcDecl() *ast.ProcDecl {
	pos := p.expect(token.PROC).Pos
	d := &ast.ProcDecl{Pos: pos}
	d.Name = p.expect(token.IDENT).Text
	p.expect(token.LPAREN)
	if !p.at(token.RPAREN) {
		for {
			d.Params = append(d.Params, p.parseParam())
			if !p.accept(token.COMMA) {
				break
			}
		}
	}
	p.expect(token.RPAREN)
	p.accept(token.SEMICOLON) // optional ';' after the header
	for {
		switch p.cur().Kind {
		case token.VAR:
			p.next()
			for {
				d.Locals = append(d.Locals, p.parseVarSpec())
				if !p.accept(token.COMMA) {
					break
				}
			}
			p.expect(token.SEMICOLON)
		case token.PROC:
			d.Nested = append(d.Nested, p.parseProcDecl())
			p.accept(token.SEMICOLON) // optional ';' after 'end'
		case token.BEGIN:
			d.Body = p.parseBlock()
			return d
		default:
			p.errorf(p.cur().Pos, "expected 'var', 'proc', or 'begin' in procedure %s, found %s", d.Name, p.cur())
			p.sync()
			if p.at(token.EOF) || p.at(token.END) {
				d.Body = &ast.Block{Pos: p.cur().Pos}
				return d
			}
			p.accept(token.SEMICOLON)
		}
	}
}

func (p *Parser) parseParam() *ast.Param {
	var mode ast.ParamMode
	switch p.cur().Kind {
	case token.REF:
		mode = ast.ByRef
		p.next()
	case token.VAL:
		mode = ast.ByVal
		p.next()
	default:
		p.errorf(p.cur().Pos, "expected 'ref' or 'val', found %s", p.cur())
		mode = ast.ByRef
	}
	t := p.expect(token.IDENT)
	prm := &ast.Param{Mode: mode, Name: t.Text, Pos: t.Pos}
	if p.accept(token.LBRACKET) {
		for {
			st := p.expect(token.STAR)
			_ = st
			prm.Rank++
			if !p.accept(token.COMMA) {
				break
			}
		}
		p.expect(token.RBRACKET)
	}
	return prm
}

func (p *Parser) parseBlock() *ast.Block {
	b := &ast.Block{Pos: p.cur().Pos}
	p.expect(token.BEGIN)
	b.Stmts = p.parseStmtList()
	p.expect(token.END)
	return b
}

// exact returns a heap copy of a list gathered in a frame-local
// buffer, exactly as long, or nil for an empty list, so growing the
// list allocates nothing.
func exact[T any](list []T) []T {
	if len(list) == 0 {
		return nil
	}
	return append(make([]T, 0, len(list)), list...)
}

// parseStmtList parses statements until 'end', 'else', or EOF.
func (p *Parser) parseStmtList() []ast.Stmt {
	var buf [16]ast.Stmt
	out := buf[:0]
	for {
		for p.accept(token.SEMICOLON) {
		}
		switch p.cur().Kind {
		case token.END, token.ELSE, token.UNTIL, token.EOF, token.PERIOD:
			return exact(out)
		}
		s := p.parseStmt()
		if s != nil {
			out = append(out, s)
		}
	}
}

func (p *Parser) parseStmt() ast.Stmt {
	switch p.cur().Kind {
	case token.BEGIN:
		return p.parseBlock()
	case token.IDENT:
		return p.parseAssign()
	case token.CALL:
		return p.parseCall()
	case token.IF:
		return p.parseIf()
	case token.WHILE:
		return p.parseWhile()
	case token.FOR:
		return p.parseFor()
	case token.REPEAT:
		return p.parseRepeat()
	case token.READ:
		pos := p.next().Pos
		return &ast.Read{Target: p.parseVarRef(), Pos: pos}
	case token.WRITE:
		pos := p.next().Pos
		return &ast.Write{Value: p.parseExpr(), Pos: pos}
	default:
		p.errorf(p.cur().Pos, "expected statement, found %s", p.cur())
		p.sync()
		p.accept(token.SEMICOLON)
		return nil
	}
}

func (p *Parser) parseVarRef() *ast.VarRef {
	t := p.expect(token.IDENT)
	v := &ast.VarRef{Name: t.Text, Pos: t.Pos}
	if p.accept(token.LBRACKET) {
		for {
			v.Subs = append(v.Subs, p.parseExpr())
			if !p.accept(token.COMMA) {
				break
			}
		}
		p.expect(token.RBRACKET)
	}
	return v
}

func (p *Parser) parseAssign() ast.Stmt {
	target := p.parseVarRef()
	pos := p.expect(token.ASSIGN).Pos
	return &ast.Assign{Target: target, Value: p.parseExpr(), Pos: pos}
}

func (p *Parser) parseCall() ast.Stmt {
	pos := p.expect(token.CALL).Pos
	c := &ast.Call{Pos: pos}
	c.Name = p.expect(token.IDENT).Text
	p.expect(token.LPAREN)
	if !p.at(token.RPAREN) {
		var buf [8]*ast.Arg
		args := buf[:0]
		for {
			args = append(args, p.parseArg())
			if !p.accept(token.COMMA) {
				break
			}
		}
		c.Args = exact(args)
	}
	p.expect(token.RPAREN)
	return c
}

// parseArg parses an actual parameter. A bare variable reference,
// array element, or array section (with '*' markers) becomes a
// SectionRef; anything else is a value expression. A variable
// reference followed by an operator is re-interpreted as the left
// operand of a value expression.
func (p *Parser) parseArg() *ast.Arg {
	pos := p.cur().Pos
	if p.at(token.IDENT) {
		sec := p.parseSectionRef()
		if p.at(token.COMMA) || p.at(token.RPAREN) {
			return &ast.Arg{Section: sec, Pos: pos}
		}
		// Operator follows: the reference is part of a larger expression.
		if sec.NumStars() > 0 {
			p.errorf(pos, "array section %s cannot appear inside an expression", sec.Name)
		}
		left := ast.Expr(&ast.VarRef{Name: sec.Name, Subs: sec.Subs, Pos: sec.Pos})
		return &ast.Arg{Value: p.parseBinaryFrom(left, 1), Pos: pos}
	}
	return &ast.Arg{Value: p.parseExpr(), Pos: pos}
}

func (p *Parser) parseSectionRef() *ast.SectionRef {
	t := p.expect(token.IDENT)
	s := &ast.SectionRef{Name: t.Text, Pos: t.Pos}
	if p.accept(token.LBRACKET) {
		for {
			if p.accept(token.STAR) {
				s.Subs = append(s.Subs, nil)
			} else {
				s.Subs = append(s.Subs, p.parseExpr())
			}
			if !p.accept(token.COMMA) {
				break
			}
		}
		p.expect(token.RBRACKET)
	}
	return s
}

func (p *Parser) parseIf() ast.Stmt {
	pos := p.expect(token.IF).Pos
	s := &ast.If{Pos: pos}
	s.Cond = p.parseExpr()
	p.expect(token.THEN)
	s.Then = &ast.Block{Pos: p.cur().Pos, Stmts: p.parseStmtList()}
	if p.accept(token.ELSE) {
		s.Else = &ast.Block{Pos: p.cur().Pos, Stmts: p.parseStmtList()}
	}
	p.expect(token.END)
	return s
}

func (p *Parser) parseWhile() ast.Stmt {
	pos := p.expect(token.WHILE).Pos
	s := &ast.While{Pos: pos}
	s.Cond = p.parseExpr()
	p.expect(token.DO)
	s.Body = &ast.Block{Pos: p.cur().Pos, Stmts: p.parseStmtList()}
	p.expect(token.END)
	return s
}

func (p *Parser) parseFor() ast.Stmt {
	pos := p.expect(token.FOR).Pos
	s := &ast.For{Pos: pos}
	it := p.expect(token.IDENT)
	s.Index = &ast.VarRef{Name: it.Text, Pos: it.Pos}
	p.expect(token.ASSIGN)
	s.Lo = p.parseExpr()
	p.expect(token.TO)
	s.Hi = p.parseExpr()
	p.expect(token.DO)
	s.Body = &ast.Block{Pos: p.cur().Pos, Stmts: p.parseStmtList()}
	p.expect(token.END)
	return s
}

func (p *Parser) parseRepeat() ast.Stmt {
	pos := p.expect(token.REPEAT).Pos
	s := &ast.Repeat{Pos: pos}
	s.Body = &ast.Block{Pos: p.cur().Pos, Stmts: p.parseStmtList()}
	p.expect(token.UNTIL)
	s.Cond = p.parseExpr()
	return s
}

// Operator precedence (binding power); 0 means "not a binary operator".
func binPrec(k token.Kind) int {
	switch k {
	case token.OR:
		return 1
	case token.AND:
		return 2
	case token.EQ, token.NEQ, token.LT, token.LE, token.GT, token.GE:
		return 3
	case token.PLUS, token.MINUS:
		return 4
	case token.STAR, token.SLASH:
		return 5
	}
	return 0
}

func (p *Parser) parseExpr() ast.Expr {
	return p.parseBinaryFrom(p.parseUnary(), 1)
}

// parseBinaryFrom continues precedence-climbing with an already-parsed
// left operand (used by parseArg's backtrack-free re-interpretation).
func (p *Parser) parseBinaryFrom(left ast.Expr, minPrec int) ast.Expr {
	for {
		op := p.cur().Kind
		prec := binPrec(op)
		if prec < minPrec {
			return left
		}
		opTok := p.next()
		right := p.parseUnary()
		for binPrec(p.cur().Kind) > prec {
			right = p.parseBinaryFrom(right, prec+1)
		}
		left = &ast.Binary{Op: op, L: left, R: right, Pos: opTok.Pos}
	}
}

func (p *Parser) parseUnary() ast.Expr {
	switch p.cur().Kind {
	case token.MINUS:
		t := p.next()
		return &ast.Unary{Op: token.MINUS, X: p.parseUnary(), Pos: t.Pos}
	case token.NOT:
		t := p.next()
		return &ast.Unary{Op: token.NOT, X: p.parseUnary(), Pos: t.Pos}
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() ast.Expr {
	switch p.cur().Kind {
	case token.INT:
		t := p.next()
		n, err := strconv.Atoi(t.Text)
		if err != nil {
			p.errorf(t.Pos, "invalid integer literal %q", t.Text)
		}
		return &ast.IntLit{Value: n, Pos: t.Pos}
	case token.IDENT:
		return p.parseVarRef()
	case token.LPAREN:
		p.next()
		e := p.parseExpr()
		p.expect(token.RPAREN)
		return e
	default:
		t := p.cur()
		p.errorf(t.Pos, "expected expression, found %s", t)
		p.next()
		return &ast.IntLit{Value: 0, Pos: t.Pos}
	}
}
