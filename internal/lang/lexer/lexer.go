// Package lexer turns MiniPL source text into a token stream.
//
// Comments are Pascal-style braces `{ ... }` and may span lines; they
// do not nest. Identifiers are ASCII letters/digits/underscores
// starting with a letter; keywords are case-sensitive (lower case).
package lexer

import (
	"fmt"

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
}

// New returns a lexer over src.
func New(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

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
	l.skipBlanksAndComments()
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
		return token.Token{Kind: token.Lookup(text), Text: text, Pos: pos}
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
