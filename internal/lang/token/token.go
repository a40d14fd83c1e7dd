// Package token defines the lexical tokens of MiniPL, the small
// imperative source language used to drive the interprocedural
// analyses. MiniPL is a Fortran/Pascal hybrid chosen to exercise
// exactly the features the paper's algorithms depend on: global
// variables, call-by-reference and call-by-value formal parameters,
// nested procedure declarations, arrays (for regular section
// analysis), and recursion.
package token

import "fmt"

// Kind enumerates the lexical token kinds.
type Kind int

// Token kinds.
const (
	ILLEGAL Kind = iota
	EOF

	IDENT // x, swap
	INT   // 42

	// Punctuation.
	LPAREN    // (
	RPAREN    // )
	LBRACKET  // [
	RBRACKET  // ]
	COMMA     // ,
	SEMICOLON // ;
	PERIOD    // .
	ASSIGN    // :=
	STAR      // * (also the "whole dimension" marker in sections)

	// Operators.
	PLUS  // +
	MINUS // -
	SLASH // /
	EQ    // =
	NEQ   // <>
	LT    // <
	LE    // <=
	GT    // >
	GE    // >=

	// Keywords.
	PROGRAM
	GLOBAL
	PROC
	VAR
	REF
	VAL
	BEGIN
	END
	CALL
	IF
	THEN
	ELSE
	WHILE
	DO
	FOR
	TO
	REPEAT
	UNTIL
	READ
	WRITE
	AND
	OR
	NOT
)

var kindNames = map[Kind]string{
	ILLEGAL: "ILLEGAL", EOF: "EOF", IDENT: "IDENT", INT: "INT",
	LPAREN: "(", RPAREN: ")", LBRACKET: "[", RBRACKET: "]",
	COMMA: ",", SEMICOLON: ";", PERIOD: ".", ASSIGN: ":=", STAR: "*",
	PLUS: "+", MINUS: "-", SLASH: "/",
	EQ: "=", NEQ: "<>", LT: "<", LE: "<=", GT: ">", GE: ">=",
	PROGRAM: "program", GLOBAL: "global", PROC: "proc", VAR: "var",
	REF: "ref", VAL: "val", BEGIN: "begin", END: "end", CALL: "call",
	IF: "if", THEN: "then", ELSE: "else", WHILE: "while", DO: "do",
	FOR: "for", TO: "to", REPEAT: "repeat", UNTIL: "until",
	READ: "read", WRITE: "write",
	AND: "and", OR: "or", NOT: "not",
}

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Lookup returns the kind of the keyword spelled s, or IDENT when s
// is not a keyword. It is a switch rather than a map because the lexer
// asks it about every identifier: the compiled switch compares lengths
// first and hashes nothing.
func Lookup(s string) Kind {
	switch s {
	case "program":
		return PROGRAM
	case "global":
		return GLOBAL
	case "proc":
		return PROC
	case "var":
		return VAR
	case "ref":
		return REF
	case "val":
		return VAL
	case "begin":
		return BEGIN
	case "end":
		return END
	case "call":
		return CALL
	case "if":
		return IF
	case "then":
		return THEN
	case "else":
		return ELSE
	case "while":
		return WHILE
	case "do":
		return DO
	case "for":
		return FOR
	case "to":
		return TO
	case "repeat":
		return REPEAT
	case "until":
		return UNTIL
	case "read":
		return READ
	case "write":
		return WRITE
	case "and":
		return AND
	case "or":
		return OR
	case "not":
		return NOT
	}
	return IDENT
}

// Pos is a source position (1-based line and column).
type Pos struct {
	Line, Col int
}

// String renders the position as "line:col".
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Token is a lexical token with its source text and position.
type Token struct {
	Kind Kind
	Text string
	Pos  Pos
}

// String renders the token for diagnostics.
func (t Token) String() string {
	switch t.Kind {
	case IDENT, INT, ILLEGAL:
		return fmt.Sprintf("%s(%q)", t.Kind, t.Text)
	default:
		return t.Kind.String()
	}
}
