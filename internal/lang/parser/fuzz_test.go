package parser_test

import (
	"math/rand"
	"strings"
	"testing"

	"sideeffect/internal/lang/lexer"
	"sideeffect/internal/lang/parser"
	"sideeffect/internal/lang/sem"
	"sideeffect/internal/lang/token"
	"sideeffect/internal/workload"
)

// tokensPool are fragments a hostile or broken editor buffer might
// contain; the parser must neither panic nor hang on any arrangement.
var tokensPool = []string{
	"program", "global", "proc", "var", "ref", "val", "begin", "end",
	"call", "if", "then", "else", "while", "do", "for", "to", "repeat", "until", "read",
	"write", "and", "or", "not", "x", "A", "p", "42", "0", "(", ")",
	"[", "]", ",", ";", ".", ":=", "*", "+", "-", "/", "=", "<>", "<",
	"<=", ">", ">=", "{", "}", "{comment", ":", "#", "$",
}

func TestParseNeverPanicsOnTokenSoup(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		var b strings.Builder
		n := r.Intn(60)
		for i := 0; i < n; i++ {
			b.WriteString(tokensPool[r.Intn(len(tokensPool))])
			b.WriteByte(' ')
		}
		src := b.String()
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panic on %q: %v", src, p)
				}
			}()
			_, _ = parser.Parse(src)
		}()
	}
}

func TestParseNeverPanicsOnMutatedValidSource(t *testing.T) {
	base := workload.Emit(workload.Random(workload.DefaultConfig(10, 5)))
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		b := []byte(base)
		// Apply a few random byte mutations.
		for k := 0; k < 1+r.Intn(5); k++ {
			switch r.Intn(3) {
			case 0: // flip
				b[r.Intn(len(b))] = byte(32 + r.Intn(95))
			case 1: // delete
				i := r.Intn(len(b))
				b = append(b[:i], b[i+1:]...)
			case 2: // duplicate a span
				i := r.Intn(len(b))
				j := i + r.Intn(len(b)-i)
				b = append(b[:j], append([]byte(string(b[i:j])), b[j:]...)...)
			}
		}
		src := string(b)
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panic on mutated source: %v\n%s", p, src)
				}
			}()
			tree, err := parser.Parse(src)
			if err == nil && tree != nil {
				// If it still parses, the semantic phase must also
				// hold up (it may error, but not panic).
				_, _ = sem.Analyze(tree)
			}
		}()
	}
}

// lexErrors lexes src to the end and returns its lexical errors.
func lexErrors(src string) []error {
	l := lexer.New(src)
	for l.Next().Kind != token.EOF {
	}
	return l.Errors()
}

// FuzzParse is a native fuzz target (run with `go test -fuzz=FuzzParse
// ./internal/lang/parser`); in normal test runs it exercises the seed
// corpus.
func FuzzParse(f *testing.F) {
	f.Add("program p; begin end.")
	f.Add("program p; global x; proc q(ref a) begin a := x end; begin call q(x) end.")
	f.Add("program p; global A[2, 2]; begin A[1, *] := 0 end.")
	f.Add("program")
	f.Add("{")
	f.Add("program p; begin x := := end.")
	f.Add("program p; begin x := 1 # end. $ { open")
	f.Fuzz(func(t *testing.T, src string) {
		tree, err := parser.Parse(src)
		if err == nil && tree != nil {
			_, _ = sem.Analyze(tree)
		}
		// Parse's errors begin with every lexical error of src, in order.
		lexErrs := lexErrors(src)
		if len(lexErrs) == 0 {
			return
		}
		if err == nil {
			t.Fatalf("%d lexical errors, Parse returned none", len(lexErrs))
		}
		got := err.(interface{ Unwrap() []error }).Unwrap()
		if len(got) < len(lexErrs) {
			t.Fatalf("Parse returned %d errors for %d lexical errors", len(got), len(lexErrs))
		}
		for i, le := range lexErrs {
			if got[i].Error() != le.Error() {
				t.Fatalf("error %d = %q, lexical error %d is %q", i, got[i], i, le)
			}
		}
	})
}
