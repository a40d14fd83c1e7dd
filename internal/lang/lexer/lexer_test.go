package lexer

import (
	"strings"
	"testing"

	"sideeffect/internal/lang/token"
)

// all scans the entire input and returns the tokens up to and
// including the terminating EOF token, and the lexical errors.
func all(src string) ([]token.Token, []error) {
	l := New(src)
	var out []token.Token
	for {
		t := l.Next()
		out = append(out, t)
		if t.Kind == token.EOF {
			return out, l.Errors()
		}
	}
}

func kinds(src string) []token.Kind {
	toks, _ := all(src)
	out := make([]token.Kind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func TestKeywordsAndIdents(t *testing.T) {
	toks, errs := all("program foo; proc bar val ref x1 _ignored")
	if len(errs) != 0 {
		t.Fatalf("errors: %v", errs)
	}
	want := []token.Kind{
		token.PROGRAM, token.IDENT, token.SEMICOLON, token.PROC,
		token.IDENT, token.VAL, token.REF, token.IDENT, token.IDENT, token.EOF,
	}
	for i, k := range want {
		if toks[i].Kind != k {
			t.Errorf("token %d = %v, want %v", i, toks[i], k)
		}
	}
	if toks[1].Text != "foo" || toks[7].Text != "x1" {
		t.Errorf("ident texts wrong: %v %v", toks[1], toks[7])
	}
}

func TestOperatorsAndPunct(t *testing.T) {
	got := kinds("( ) [ ] , ; . := * + - / = <> < <= > >=")
	want := []token.Kind{
		token.LPAREN, token.RPAREN, token.LBRACKET, token.RBRACKET,
		token.COMMA, token.SEMICOLON, token.PERIOD, token.ASSIGN,
		token.STAR, token.PLUS, token.MINUS, token.SLASH, token.EQ,
		token.NEQ, token.LT, token.LE, token.GT, token.GE, token.EOF,
	}
	if len(got) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestNumbers(t *testing.T) {
	toks, errs := all("0 42 123456")
	if len(errs) != 0 {
		t.Fatalf("errors: %v", errs)
	}
	for i, text := range []string{"0", "42", "123456"} {
		if toks[i].Kind != token.INT || toks[i].Text != text {
			t.Errorf("token %d = %v, want INT(%s)", i, toks[i], text)
		}
	}
}

func TestComments(t *testing.T) {
	toks, errs := all("x { this is\na comment } y")
	if len(errs) != 0 {
		t.Fatalf("errors: %v", errs)
	}
	if len(toks) != 3 || toks[0].Text != "x" || toks[1].Text != "y" {
		t.Errorf("comment not skipped: %v", toks)
	}
	if toks[1].Pos.Line != 2 {
		t.Errorf("line tracking across comment: %v", toks[1].Pos)
	}
}

func TestUnterminatedComment(t *testing.T) {
	_, errs := all("x { never closed")
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "unterminated") {
		t.Errorf("errs = %v", errs)
	}
}

func TestPositions(t *testing.T) {
	toks, _ := all("a\n  bb\n   c")
	wantPos := []token.Pos{{Line: 1, Col: 1}, {Line: 2, Col: 3}, {Line: 3, Col: 4}}
	for i, p := range wantPos {
		if toks[i].Pos != p {
			t.Errorf("token %d pos = %v, want %v", i, toks[i].Pos, p)
		}
	}
}

func TestIllegalChars(t *testing.T) {
	toks, errs := all("x # y")
	if len(errs) != 1 {
		t.Fatalf("errs = %v", errs)
	}
	if toks[1].Kind != token.ILLEGAL {
		t.Errorf("token 1 = %v, want ILLEGAL", toks[1])
	}
}

func TestLoneColon(t *testing.T) {
	toks, errs := all("x : y")
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), ":=") {
		t.Errorf("errs = %v", errs)
	}
	if toks[1].Kind != token.ILLEGAL {
		t.Errorf("token 1 = %v", toks[1])
	}
}

func TestAssignVsColon(t *testing.T) {
	toks, errs := all("x := 1")
	if len(errs) != 0 {
		t.Fatalf("errors: %v", errs)
	}
	if toks[1].Kind != token.ASSIGN {
		t.Errorf("token 1 = %v, want :=", toks[1])
	}
}

func TestEOFForever(t *testing.T) {
	l := New("x")
	l.Next()
	for i := 0; i < 3; i++ {
		if tok := l.Next(); tok.Kind != token.EOF {
			t.Fatalf("Next after end = %v, want EOF", tok)
		}
	}
}

// TestPunctuationAllocatesNothing: a one-byte token's text is a slice
// of the source, so scanning punctuation and operators allocates
// nothing beyond the lexer itself.
func TestPunctuationAllocatesNothing(t *testing.T) {
	const src = "( ) [ ] , ; . := * + - / = <> < <= > >= x 42"
	allocs := testing.AllocsPerRun(20, func() {
		l := New(src)
		for l.Next().Kind != token.EOF {
		}
	})
	if allocs > 1 {
		t.Errorf("lexing %q allocated %.0f times, want at most 1", src, allocs)
	}
	toks, _ := all("( ;")
	if toks[0].Text != "(" || toks[1].Text != ";" {
		t.Errorf("punctuation texts = %q, %q", toks[0].Text, toks[1].Text)
	}
}
