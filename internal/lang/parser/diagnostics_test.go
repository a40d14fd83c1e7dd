package parser_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"sideeffect/internal/lang/parser"
	"sideeffect/internal/workload"
)

// diagnosticsDigest is the SHA-256 of the joined error texts that
// Parse returns for hostileCorpus, recorded from the parser that lexed
// the whole input into a token slice before parsing. The streaming
// parser must reproduce it byte for byte.
const diagnosticsDigest = "886e5eeee6d14beb6f2dcd66fb9159529b1a6f5b7d41b90f2808685d0920f67a"

// hostile is a fragment pool for token soup: every MiniPL token,
// comment openers and closers, and bytes the lexer rejects — ASCII,
// NUL and non-ASCII, including a lone UTF-8 lead byte.
var hostile = append(append([]string{}, tokensPool...),
	"}", "{x}", "\x00", "é", "\xff", "\xc3", "?", "@", "!", "'", "\"", "\t", "\n",
	"program p;", "begin", "end.", "x :=", "call p(", "A[1, *]",
)

// hostileCorpus returns the seeded inputs of TestParseDiagnosticsUnchanged:
// token soup, byte-mutated generated programs, and generated programs
// carrying more lexical errors than the parser's error budget, some
// of them after the point where parsing gives up.
func hostileCorpus() []string {
	r := rand.New(rand.NewSource(27))
	var out []string
	// Token soup, with and without separators.
	for i := 0; i < 10000; i++ {
		var b strings.Builder
		n := r.Intn(80)
		sep := r.Intn(3) != 0
		for k := 0; k < n; k++ {
			b.WriteString(hostile[r.Intn(len(hostile))])
			if sep {
				b.WriteByte(' ')
			}
		}
		out = append(out, b.String())
	}
	var bases []string
	for seed := int64(0); seed < 8; seed++ {
		cfg := workload.DefaultConfig(6+int(seed), seed)
		if seed%2 == 1 {
			cfg.MaxDepth = 2
			cfg.NestFraction = 0.5
		}
		bases = append(bases, workload.Emit(workload.Random(cfg)))
	}
	// Byte mutations of generated programs, over every byte value.
	for i := 0; i < 10000; i++ {
		b := []byte(bases[r.Intn(len(bases))])
		for k := 0; k < 1+r.Intn(6) && len(b) > 1; k++ {
			switch r.Intn(4) {
			case 0: // overwrite with any byte
				b[r.Intn(len(b))] = byte(r.Intn(256))
			case 1: // delete
				j := r.Intn(len(b))
				b = append(b[:j], b[j+1:]...)
			case 2: // duplicate a span
				j := r.Intn(len(b))
				e := j + r.Intn(len(b)-j)
				b = append(b[:e], append([]byte(string(b[j:e])), b[e:]...)...)
			case 3: // truncate
				b = b[:r.Intn(len(b))+1]
			}
		}
		out = append(out, string(b))
	}
	// Many lexical errors: illegal bytes sprinkled over a generated
	// program (more than the budget in most inputs), or placed only
	// after an early syntax error that exhausts the budget.
	illegal := []string{"#", "$", "?", "\x00", "é", "\xfe", ":"}
	for i := 0; i < 5000; i++ {
		base := bases[r.Intn(len(bases))]
		var b strings.Builder
		if i%2 == 0 {
			rate := 5 + r.Intn(40)
			for j := 0; j < len(base); j++ {
				b.WriteByte(base[j])
				if r.Intn(rate) == 0 {
					b.WriteString(illegal[r.Intn(len(illegal))])
				}
			}
		} else {
			b.WriteString(strings.Repeat("begin := ", 5+r.Intn(40)))
			b.WriteString(base)
			for k := r.Intn(40); k > 0; k-- {
				b.WriteString(illegal[r.Intn(len(illegal))])
			}
			if r.Intn(2) == 0 {
				b.WriteString("{ open")
			}
		}
		out = append(out, b.String())
	}
	return out
}

// TestParseDiagnosticsUnchanged pins Parse's diagnostics byte for byte
// on a seeded corpus of hostile inputs: lexical errors come first, in
// source order, then the parse errors that fit the error budget.
func TestParseDiagnosticsUnchanged(t *testing.T) {
	corpus := hostileCorpus()
	h := sha256.New()
	withErrs, overBudget, nul, nonASCII := 0, 0, 0, 0
	for i, src := range corpus {
		_, err := parser.Parse(src)
		fmt.Fprintf(h, "%d\x00", i)
		if err != nil {
			withErrs++
			h.Write([]byte(err.Error()))
		}
		h.Write([]byte{0})
		if len(lexErrors(src)) > 25 {
			overBudget++
		}
		if strings.IndexByte(src, 0) >= 0 {
			nul++
		}
		if strings.IndexFunc(src, func(r rune) bool { return r >= 0x80 }) >= 0 {
			nonASCII++
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("%d inputs: %d with errors, %d with more lexical errors than the budget, %d with NUL, %d non-ASCII; digest %s",
		len(corpus), withErrs, overBudget, nul, nonASCII, got)
	if len(corpus) < 20000 || overBudget == 0 || nul == 0 || nonASCII == 0 {
		t.Fatal("the corpus lost some of its hostile inputs")
	}
	if got != diagnosticsDigest {
		t.Errorf("diagnostics digest = %s, want %s", got, diagnosticsDigest)
	}
}

// errLines renders n diagnostics on line 1 whose columns start at col
// and step by step, one per line.
func errLines(format string, col, step, n int) []string {
	out := make([]string, n)
	for k := range out {
		out[k] = fmt.Sprintf(format, col+k*step)
	}
	return out
}

// TestParseDiagnosticsGolden shows the error-budget rules on readable
// inputs: every lexical error is reported, first, even one the parser
// never reached or one beyond the budget; the parse errors that follow
// fill what is left of it.
func TestParseDiagnosticsGolden(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		want      []string
	}{{
		name: "lexical error after the bailout point",
		src:  "program p; begin " + strings.Repeat("x := ; ", 30) + "end. #",
		want: append([]string{`1:233: lex: illegal character "#"`},
			errLines("1:%d: parse: expected expression, found ;", 23, 7, 24)...),
	}, {
		name: "more lexical errors than the budget",
		src:  "program p; " + strings.Repeat("# ", 26) + "begin x := end.",
		want: errLines(`1:%d: lex: illegal character "#"`, 12, 2, 26),
	}, {
		name: "unterminated comment",
		src:  "program p; begin x := 1 { never closed",
		want: []string{
			"1:25: lex: unterminated comment",
			"1:39: parse: expected end, found EOF",
			"1:39: parse: expected ., found EOF",
		},
	}, {
		name: "non-ASCII illegal bytes",
		src:  "program p; begin x := 1 \xc3\xa9 end.",
		want: []string{
			`1:25: lex: illegal character "Ã"`,
			`1:26: lex: illegal character "©"`,
			`1:25: parse: expected statement, found ILLEGAL("Ã")`,
		},
	}, {
		name: "NUL byte",
		src:  "program p;\x00begin end.",
		want: []string{
			`1:11: lex: illegal character "\x00"`,
			`1:11: parse: expected 'global', 'proc', or 'begin', found ILLEGAL("\x00")`,
		},
	}} {
		_, err := parser.Parse(tc.src)
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if got, want := err.Error(), strings.Join(tc.want, "\n"); got != want {
			t.Errorf("%s: errors\n%s\nwant\n%s", tc.name, got, want)
		}
	}
}
