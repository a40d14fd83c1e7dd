// Package lexer turns MiniPL source text into a token stream.
//
// Comments are Pascal-style braces `{ ... }` and may span lines; they
// do not nest. Identifiers are ASCII letters/digits/underscores
// starting with a letter; keywords are case-sensitive (lower case).
package lexer

import (
	"fmt"
	"strings"

	"sideeffect/internal/lang/token"
)

// Lexer scans MiniPL source one token at a time: the parser pulls each
// token with Next, and no token slice is ever built.
type Lexer struct {
	src  string
	off  int
	line int
	col  int
	errs []error

	// start is the offset of the token Next returned last, and gap the
	// offset just past the token before it.
	start, gap int
	// names, once Copying is called, holds the copy of every
	// identifier scanned so far, keyed by its text.
	names map[string]string
}

// New returns a lexer over src.
func New(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Copying makes the lexer return each identifier's text as a copy of
// its bytes, so that a tree kept after its source is dropped does not
// keep that source alive. Equal identifiers share one copy.
func (l *Lexer) Copying() { l.names = map[string]string{} }

// Start returns the offset in the source of the token Next returned
// last.
func (l *Lexer) Start() int { return l.start }

// End returns the offset just past the token before the one Next
// returned last: once a parser has consumed a construct and pulled one
// token beyond it, the offset where the construct ends.
func (l *Lexer) End() int { return l.gap }

// Peek returns the identifier that follows the last token across
// blanks, or "" when none does. It moves nothing and records no error.
func (l *Lexer) Peek() string {
	i := l.off
	for i < len(l.src) && (l.src[i] == ' ' || l.src[i] == '\t' || l.src[i] == '\r' || l.src[i] == '\n') {
		i++
	}
	if i == len(l.src) || !isLetter(l.src[i]) {
		return ""
	}
	j := i + 1
	for j < len(l.src) && (isLetter(l.src[j]) || isDigit(l.src[j])) {
		j++
	}
	return l.src[i:j]
}

// Jump moves the lexer to offset off, at line and column col, without
// scanning what lies between: the parser has taken those bytes' tree
// from an earlier parse. The next token is scanned from off.
func (l *Lexer) Jump(off, line, col int) {
	l.off, l.line, l.col = off, line, col
}

// IsWordByte reports whether c can continue an identifier, keyword or
// number, so that two such tokens with nothing between them would scan
// as one.
func IsWordByte(c byte) bool { return isLetter(c) || isDigit(c) }

// Errors returns the lexical errors encountered so far.
func (l *Lexer) Errors() []error { return l.errs }

func (l *Lexer) errorf(p token.Pos, format string, args ...any) {
	l.errs = append(l.errs, fmt.Errorf("%s: lex: %s", p, fmt.Sprintf(format, args...)))
}

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *Lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

// skipTo moves to offset end, on the current line, and returns the
// text skipped.
func (l *Lexer) skipTo(end int) string {
	text := l.src[l.off:end]
	l.col += end - l.off
	l.off = end
	return text
}

func isLetter(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func (l *Lexer) skipBlanksAndComments() {
	for l.off < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '{':
			start := token.Pos{Line: l.line, Col: l.col}
			l.advance()
			closed := false
			for l.off < len(l.src) {
				if l.advance() == '}' {
					closed = true
					break
				}
			}
			if !closed {
				l.errorf(start, "unterminated comment")
			}
		default:
			return
		}
	}
}

// Next returns the next token. At end of input it returns EOF tokens
// forever.
func (l *Lexer) Next() token.Token {
	l.gap = l.off
	l.skipBlanksAndComments()
	l.start = l.off
	pos := token.Pos{Line: l.line, Col: l.col}
	if l.off >= len(l.src) {
		return token.Token{Kind: token.EOF, Pos: pos}
	}
	c := l.peek()
	switch {
	case isLetter(c):
		end := l.off + 1
		for end < len(l.src) && (isLetter(l.src[end]) || isDigit(l.src[end])) {
			end++
		}
		text := l.skipTo(end)
		kind := token.Lookup(text)
		if l.names != nil && kind == token.IDENT {
			name, ok := l.names[text]
			if !ok {
				name = strings.Clone(text)
				l.names[name] = name
			}
			text = name
		}
		return token.Token{Kind: kind, Text: text, Pos: pos}
	case isDigit(c):
		end := l.off + 1
		for end < len(l.src) && isDigit(l.src[end]) {
			end++
		}
		return token.Token{Kind: token.INT, Text: l.skipTo(end), Pos: pos}
	}
	// A one-byte token's text is the source byte itself, so it costs
	// no allocation.
	one := func(k token.Kind) token.Token {
		l.advance()
		return token.Token{Kind: k, Text: l.src[l.off-1 : l.off], Pos: pos}
	}
	switch c {
	case '(':
		return one(token.LPAREN)
	case ')':
		return one(token.RPAREN)
	case '[':
		return one(token.LBRACKET)
	case ']':
		return one(token.RBRACKET)
	case ',':
		return one(token.COMMA)
	case ';':
		return one(token.SEMICOLON)
	case '.':
		return one(token.PERIOD)
	case '*':
		return one(token.STAR)
	case '+':
		return one(token.PLUS)
	case '-':
		return one(token.MINUS)
	case '/':
		return one(token.SLASH)
	case '=':
		return one(token.EQ)
	case ':':
		if l.peek2() == '=' {
			l.advance()
			l.advance()
			return token.Token{Kind: token.ASSIGN, Text: ":=", Pos: pos}
		}
		l.advance()
		l.errorf(pos, "unexpected ':' (did you mean ':='?)")
		return token.Token{Kind: token.ILLEGAL, Text: ":", Pos: pos}
	case '<':
		l.advance()
		switch l.peek() {
		case '=':
			l.advance()
			return token.Token{Kind: token.LE, Text: "<=", Pos: pos}
		case '>':
			l.advance()
			return token.Token{Kind: token.NEQ, Text: "<>", Pos: pos}
		}
		return token.Token{Kind: token.LT, Text: "<", Pos: pos}
	case '>':
		l.advance()
		if l.peek() == '=' {
			l.advance()
			return token.Token{Kind: token.GE, Text: ">=", Pos: pos}
		}
		return token.Token{Kind: token.GT, Text: ">", Pos: pos}
	}
	// Not a substring: string(c) converts the byte as a rune, so a
	// non-ASCII byte shows as its Latin-1 character in diagnostics.
	l.advance()
	l.errorf(pos, "illegal character %q", string(c))
	return token.Token{Kind: token.ILLEGAL, Text: string(c), Pos: pos}
}
