package parser_test

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"sideeffect/internal/ir"
	"sideeffect/internal/lang/ast"
	"sideeffect/internal/lang/parser"
	"sideeffect/internal/lang/sem"
	"sideeffect/internal/lang/token"
	"sideeffect/internal/workload"
)

// dumpAST prints every node of a program with its position as the
// program's readers see it: moved by its item's line shift.
func dumpAST(p *ast.Program) string {
	var b strings.Builder
	at := func(pos token.Pos, shift int) string { return fmt.Sprintf("@%d:%d", pos.Line+shift, pos.Col) }
	var expr func(e ast.Expr, shift int)
	expr = func(e ast.Expr, shift int) {
		switch e := e.(type) {
		case nil:
			b.WriteString("*")
		case *ast.IntLit:
			fmt.Fprintf(&b, "%d%s", e.Value, at(e.Pos, shift))
		case *ast.VarRef:
			fmt.Fprintf(&b, "%s%s[", e.Name, at(e.Pos, shift))
			for _, s := range e.Subs {
				expr(s, shift)
				b.WriteString(" ")
			}
			b.WriteString("]")
		case *ast.SectionRef:
			fmt.Fprintf(&b, "section %s%s[", e.Name, at(e.Pos, shift))
			for _, s := range e.Subs {
				expr(s, shift)
				b.WriteString(" ")
			}
			b.WriteString("]")
		case *ast.Unary:
			fmt.Fprintf(&b, "(%v%s ", e.Op, at(e.Pos, shift))
			expr(e.X, shift)
			b.WriteString(")")
		case *ast.Binary:
			b.WriteString("(")
			expr(e.L, shift)
			fmt.Fprintf(&b, " %v%s ", e.Op, at(e.Pos, shift))
			expr(e.R, shift)
			b.WriteString(")")
		default:
			fmt.Fprintf(&b, "%T", e)
		}
	}
	var block func(bl *ast.Block, shift int, indent string)
	stmt := func(s ast.Stmt, shift int, indent string) {
		b.WriteString(indent)
		switch s := s.(type) {
		case *ast.Block:
			block(s, shift, indent)
			return
		case *ast.Assign:
			fmt.Fprintf(&b, "assign%s ", at(s.Pos, shift))
			expr(s.Target, shift)
			b.WriteString(" := ")
			expr(s.Value, shift)
		case *ast.Call:
			fmt.Fprintf(&b, "call %s%s(", s.Name, at(s.Pos, shift))
			for _, a := range s.Args {
				fmt.Fprintf(&b, "arg%s ", at(a.Pos, shift))
				if a.Section != nil {
					expr(a.Section, shift)
				} else {
					expr(a.Value, shift)
				}
				b.WriteString(", ")
			}
			b.WriteString(")")
		case *ast.If:
			fmt.Fprintf(&b, "if%s ", at(s.Pos, shift))
			expr(s.Cond, shift)
			b.WriteString("\n")
			block(s.Then, shift, indent+"  ")
			if s.Else != nil {
				block(s.Else, shift, indent+"  ")
			}
			return
		case *ast.While:
			fmt.Fprintf(&b, "while%s ", at(s.Pos, shift))
			expr(s.Cond, shift)
			b.WriteString("\n")
			block(s.Body, shift, indent+"  ")
			return
		case *ast.For:
			fmt.Fprintf(&b, "for%s ", at(s.Pos, shift))
			expr(s.Index, shift)
			b.WriteString(" ")
			expr(s.Lo, shift)
			b.WriteString(" ")
			expr(s.Hi, shift)
			b.WriteString("\n")
			block(s.Body, shift, indent+"  ")
			return
		case *ast.Repeat:
			fmt.Fprintf(&b, "repeat%s ", at(s.Pos, shift))
			expr(s.Cond, shift)
			b.WriteString("\n")
			block(s.Body, shift, indent+"  ")
			return
		case *ast.Read:
			fmt.Fprintf(&b, "read%s ", at(s.Pos, shift))
			expr(s.Target, shift)
		case *ast.Write:
			fmt.Fprintf(&b, "write%s ", at(s.Pos, shift))
			expr(s.Value, shift)
		default:
			fmt.Fprintf(&b, "%T", s)
		}
		b.WriteString("\n")
	}
	block = func(bl *ast.Block, shift int, indent string) {
		if bl == nil {
			fmt.Fprintf(&b, "%snil block\n", indent)
			return
		}
		fmt.Fprintf(&b, "%sblock%s\n", indent, at(bl.Pos, shift))
		for _, s := range bl.Stmts {
			stmt(s, shift, indent+"  ")
		}
	}
	varDecl := func(what string, d *ast.VarDecl, shift int, indent string) {
		fmt.Fprintf(&b, "%s%s %s%v%s\n", indent, what, d.Name, d.Dims, at(d.Pos, shift))
	}
	var proc func(d *ast.ProcDecl, shift int, indent string)
	proc = func(d *ast.ProcDecl, shift int, indent string) {
		fmt.Fprintf(&b, "%sproc %s%s\n", indent, d.Name, at(d.Pos, shift))
		for _, prm := range d.Params {
			fmt.Fprintf(&b, "%s  param %v %s rank %d%s\n", indent, prm.Mode, prm.Name, prm.Rank, at(prm.Pos, shift))
		}
		for _, l := range d.Locals {
			varDecl("local", l, shift, indent+"  ")
		}
		for _, n := range d.Nested {
			proc(n, shift, indent+"  ")
		}
		block(d.Body, shift, indent+"  ")
	}
	fmt.Fprintf(&b, "program %s%s\n", p.Name, at(p.Pos, 0))
	for i, g := range p.Globals {
		varDecl("global", g, p.GlobalShift(i), "")
	}
	for i, d := range p.Procs {
		proc(d, p.ProcShift(i), "")
	}
	if p.Body != nil {
		block(p.Body, p.BodyShift(), "")
	}
	return b.String()
}

// dumpIR prints every ID, name, fact and position of a program model.
func dumpIR(p *ir.Program) string {
	var b strings.Builder
	ids := func(vs []*ir.Variable) []int {
		out := []int{}
		for _, v := range vs {
			out = append(out, v.ID)
		}
		return out
	}
	subs := func(ss []ir.Sub) string {
		var parts []string
		for _, s := range ss {
			id := -1
			if s.Sym != nil {
				id = s.Sym.ID
			}
			parts = append(parts, fmt.Sprintf("%d/%d/%d", s.Kind, s.Const, id))
		}
		return "[" + strings.Join(parts, " ") + "]"
	}
	fmt.Fprintf(&b, "program %s main %d\n", p.Name, p.Main.ID)
	for _, v := range p.Vars {
		owner := -1
		if v.Owner != nil {
			owner = v.Owner.ID
		}
		fmt.Fprintf(&b, "var %d %s %v owner %d ordinal %d dims %v @%v\n", v.ID, v.Name, v.Kind, owner, v.Ordinal, v.Dims, v.Pos)
	}
	for _, q := range p.Procs {
		parent := -1
		if q.Parent != nil {
			parent = q.Parent.ID
		}
		var nested, calls []int
		for _, n := range q.Nested {
			nested = append(nested, n.ID)
		}
		for _, c := range q.Calls {
			calls = append(calls, c.ID)
		}
		fmt.Fprintf(&b, "proc %d %s parent %d level %d main %v formals %v locals %v nested %v calls %v imod %v iuse %v @%v\n",
			q.ID, q.Name, parent, q.Level, q.IsMain, ids(q.Formals), ids(q.Locals), nested, calls, q.IMOD.Elems(), q.IUSE.Elems(), q.Pos)
		for _, acc := range q.Accesses {
			fmt.Fprintf(&b, "  access %d %s mod %v @%v\n", acc.Var.ID, subs(acc.Subs), acc.Mod, acc.Pos)
		}
	}
	for _, cs := range p.Sites {
		fmt.Fprintf(&b, "site %d %d->%d @%v\n", cs.ID, cs.Caller.ID, cs.Callee.ID, cs.Pos)
		for _, a := range cs.Args {
			id := -1
			if a.Var != nil {
				id = a.Var.ID
			}
			fmt.Fprintf(&b, "  arg %v var %d subs %s uses %v\n", a.Mode, id, subs(a.Subs), ids(a.Uses))
		}
	}
	for _, l := range p.Loops {
		var sites []int
		for _, cs := range l.Sites {
			sites = append(sites, cs.ID)
		}
		fmt.Fprintf(&b, "loop proc %d index %d sites %v @%v\n", l.Proc.ID, l.Index.ID, sites, l.Pos)
	}
	return b.String()
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkParseFrom parses next from prev's tree and fails unless that
// gives exactly what a fresh parse of next gives: the same errors byte
// for byte, the same tree with every position, and, through sem, the
// same program model or the same diagnostics.
func checkParseFrom(t *testing.T, prev *parser.Tree, next string) *parser.Tree {
	t.Helper()
	tree, err := parser.ParseFrom(next, prev)
	fresh, freshErr := parser.Parse(next)
	if errText(err) != errText(freshErr) {
		t.Fatalf("ParseFrom errors differ from Parse's:\n%s\nfresh:\n%s", errText(err), errText(freshErr))
	}
	if got, want := dumpAST(tree.Prog), dumpAST(fresh); got != want {
		t.Fatalf("ParseFrom tree differs from Parse's:\n%s\nfresh:\n%s", got, want)
	}
	if err != nil {
		return tree
	}
	prog, err := sem.Analyze(tree.Prog)
	want, freshErr := sem.Analyze(fresh)
	if errText(err) != errText(freshErr) {
		t.Fatalf("sem errors differ:\n%s\nfresh:\n%s", errText(err), errText(freshErr))
	}
	if err == nil && dumpIR(prog) != dumpIR(want) {
		t.Fatalf("program model differs from a fresh parse's:\n%s\nfresh:\n%s", dumpIR(prog), dumpIR(want))
	}
	return tree
}

// editBase is a generated program with nested procedures, the source
// most edit shapes below start from.
func editBase() string {
	cfg := workload.DefaultConfig(8, 3)
	cfg.MaxDepth = 2
	cfg.NestFraction = 0.5
	return workload.Emit(workload.Random(cfg))
}

// symbolic has symbolic subscripts, loops and comments.
const symbolic = `{ header comment }
program loops;
global grid[8, 8];
global hist[8], n, i;
proc relaxcol(ref col[*], val len)
  var r;
begin
  for r := 1 to len do col[r] := col[r] + 1 end
end;
proc scatter(ref h[*], val v)
  var slot;
begin
  slot := v - v / 2 * 2; { a comment inside an item }
  h[slot + 1] := h[slot + 1] + v
end;
begin
  for i := 1 to n do
    call relaxcol(grid[*, i], 8)
  end;
  for i := 1 to n do
    call scatter(hist, i)
  end
end.
`

// procText returns the text of the top-level procedure named name in
// a generated program: from its "proc" to the blank line after it.
func procText(src, name string) string {
	i := strings.Index(src, "\nproc "+name+"(")
	j := strings.Index(src[i+1:], "\n\n")
	return src[i+1 : i+1+j+1]
}

// editShapes are (old, new) pairs covering the edits ParseFrom must
// get right: lines inserted into and deleted from bodies, a procedure
// moved, renamed and given a new header, two items on one line, CRLF
// line ends, and edits that open an unterminated comment or add a
// lexical error inside or across items.
func editShapes() [][2]string {
	base := editBase()
	p1, p3 := procText(base, "p1"), procText(base, "p3")
	body := strings.Index(base, "\nbegin\n") + len("\nbegin\n")
	last := strings.LastIndex(base, "\nproc ")
	crlf := strings.ReplaceAll(base, "\n", "\r\n")
	return [][2]string{
		{base, base},
		{base, base[:body] + "  write g0;\n" + base[body:]},
		{base[:body] + "  write g0;\n" + base[body:], base},
		{base, base[:body] + base[strings.Index(base[body:], "\n")+body+1:]},
		{base, strings.Replace(strings.Replace(base, p1, "", 1), p3, p3+p1, 1)},
		{base, strings.Replace(base, "proc p1(", "proc q1(", 1)},
		{base, strings.Replace(base, "proc p1(", "proc p1(val extra, ", 1)},
		{base, strings.Replace(base, "end;\n\nproc p1(", "end; proc p1(", 1)},
		{strings.Replace(base, "end;\n\nproc p1(", "end; proc p1(", 1), strings.Replace(base, "end;\n\nproc p1(", "end;  proc p1(", 1)},
		{base, strings.Replace(base, "global g1;\n", "global g1; global g9;\n", 1)},
		{base, crlf},
		{crlf, crlf[:body+3] + "  write g0;\r\n" + crlf[body+3:]},
		{base, base[:body] + "  { open\n" + base[body:]},
		{base[:body] + "  { open\n" + base[body:], base},
		{base, base[:body] + "  x := # 1;\n" + base[body:]},
		{base, base[:last] + " $ " + base[last:]},
		{base, base[:last] + "\n{ spans items " + base[last+1:last+40] + " }" + base[last+40:]},
		{base, strings.Replace(base, "end;\n\nproc p1(", "endx;\n\nproc p1(", 1)},
		{base, strings.Replace(base, "end;\n\nproc p1(", "end\nproc p1(", 1)},
		{base, strings.Replace(base, "end;\n\nproc p1(", "end;;\nproc p1(", 1)},
		{base, strings.TrimSuffix(strings.TrimSpace(base), ".")},
		{symbolic, strings.Replace(symbolic, "slot := v", "slot := v;\n  n := 1;\n  slot := v", 1)},
		{symbolic, strings.Replace(symbolic, "{ header comment }\n", "", 1)},
		{symbolic, strings.Replace(symbolic, "global hist[8], n, i;", "global hist[8], n, i, k;", 1)},
	}
}

func TestParseFromEditShapes(t *testing.T) {
	for i, pair := range editShapes() {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			old := checkParseFrom(t, new(parser.Tree), pair[0])
			checkParseFrom(t, old, pair[1])
		})
	}
}

// TestParseFromTakesUnchangedItems: an edit inside one procedure's body
// takes every other item from the previous tree (the same nodes) and
// parses that procedure again; an item is taken only where the text is
// unchanged, and never from a tree whose parse of it had an error.
func TestParseFromTakesUnchangedItems(t *testing.T) {
	base := editBase()
	old, err := parser.ParseFrom(base, new(parser.Tree))
	if err != nil {
		t.Fatal(err)
	}
	body := strings.Index(base, "\nproc p1(")
	body += strings.Index(base[body:], "\nbegin\n") + len("\nbegin\n")
	edited := base[:body] + "  write g0;\n" + base[body:]
	next := checkParseFrom(t, old, edited)
	if next.Items() != old.Items() {
		t.Fatalf("the edited tree keeps %d items, the old one %d", next.Items(), old.Items())
	}
	taken := 0
	for i, d := range next.Prog.Procs {
		if d == old.Prog.Procs[i] {
			taken++
		} else if d.Name != "p1" {
			t.Errorf("procedure %s was parsed again", d.Name)
		}
	}
	if taken != len(old.Prog.Procs)-1 {
		t.Errorf("%d of %d procedures taken from the old tree, want all but p1", taken, len(old.Prog.Procs))
	}
	if next.Prog.Body != old.Prog.Body || next.Prog.Globals[0] != old.Prog.Globals[0] {
		t.Error("the main block or a global was parsed again")
	}
	// The items below the edit moved down one line.
	if s := next.Prog.BodyShift(); s != 1 {
		t.Errorf("main block shift %d, want 1", s)
	}

	// A tree whose parse had an error keeps none of the items it found
	// the error in, nor one whose lookahead token held an error.
	broken := strings.Replace(base, "proc p1(", "proc p1(#", 1)
	bt, err := parser.ParseFrom(broken, new(parser.Tree))
	if err == nil {
		t.Fatal("broken source parsed")
	}
	if bt.Items() >= old.Items() {
		t.Fatalf("the broken tree keeps %d items, the clean one %d", bt.Items(), old.Items())
	}
	fixed := checkParseFrom(t, bt, base)
	for i, d := range fixed.Prog.Procs {
		if d.Name == "p1" && d == bt.Prog.Procs[i] {
			t.Error("p1, which had a lexical error, was taken from the broken tree")
		}
	}
}

// TestParseFromCopiesNames: identifiers parsed into a kept tree are
// copies, so a tree handed on from edit to edit holds no substring of
// any text it was parsed from; otherwise every taken item would keep
// the whole text of the edit that parsed it alive, and a session whose
// texts never repeat would grow without bound.
func TestParseFromCopiesNames(t *testing.T) {
	base := editBase()
	body := strings.Index(base, "\nbegin\n") + len("\nbegin\n")
	var texts []string
	tree := new(parser.Tree)
	for i := 0; i < 50; i++ {
		src := base
		if i > 0 {
			src = fmt.Sprintf("%s  write g%d;\n%s", base[:body], i%4, base[body:])
			src = strings.Replace(src, "global g0;", fmt.Sprintf("global g0; { edit %d }", i), 1)
		}
		texts = append(texts, src)
		var err error
		if tree, err = parser.ParseFrom(src, tree); err != nil {
			t.Fatal(err)
		}
	}
	inText := func(name string) bool {
		if name == "" {
			return false
		}
		p := uintptr(unsafe.Pointer(unsafe.StringData(name)))
		for _, src := range texts {
			lo := uintptr(unsafe.Pointer(unsafe.StringData(src)))
			if p >= lo && p < lo+uintptr(len(src)) {
				return true
			}
		}
		return false
	}
	names := 0
	walkNames(tree.Prog, func(name string) {
		names++
		if inText(name) {
			t.Fatalf("name %q points into a source text", name)
		}
	})
	if names == 0 {
		t.Fatal("no names walked")
	}
}

// walkNames calls f with every identifier a program's tree holds.
func walkNames(p *ast.Program, f func(string)) {
	var expr func(e ast.Expr)
	expr = func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.VarRef:
			f(e.Name)
			for _, s := range e.Subs {
				expr(s)
			}
		case *ast.SectionRef:
			f(e.Name)
			for _, s := range e.Subs {
				expr(s)
			}
		case *ast.Unary:
			expr(e.X)
		case *ast.Binary:
			expr(e.L)
			expr(e.R)
		}
	}
	var block func(b *ast.Block)
	block = func(b *ast.Block) {
		if b == nil {
			return
		}
		for _, s := range b.Stmts {
			switch s := s.(type) {
			case *ast.Block:
				block(s)
			case *ast.Assign:
				expr(s.Target)
				expr(s.Value)
			case *ast.Call:
				f(s.Name)
				for _, a := range s.Args {
					if a.Section != nil {
						expr(a.Section)
					} else {
						expr(a.Value)
					}
				}
			case *ast.If:
				expr(s.Cond)
				block(s.Then)
				block(s.Else)
			case *ast.While:
				expr(s.Cond)
				block(s.Body)
			case *ast.For:
				expr(s.Index)
				expr(s.Lo)
				expr(s.Hi)
				block(s.Body)
			case *ast.Repeat:
				block(s.Body)
				expr(s.Cond)
			case *ast.Read:
				expr(s.Target)
			case *ast.Write:
				expr(s.Value)
			}
		}
	}
	var proc func(d *ast.ProcDecl)
	proc = func(d *ast.ProcDecl) {
		f(d.Name)
		for _, prm := range d.Params {
			f(prm.Name)
		}
		for _, l := range d.Locals {
			f(l.Name)
		}
		for _, n := range d.Nested {
			proc(n)
		}
		block(d.Body)
	}
	f(p.Name)
	for _, g := range p.Globals {
		f(g.Name)
	}
	for _, d := range p.Procs {
		proc(d)
	}
	block(p.Body)
}

// FuzzParseFrom parses the second text of each pair from the first's
// tree and checks it against a fresh parse (checkParseFrom). Its seeds
// are FuzzParse's corpus and the edit shapes above.
func FuzzParseFrom(f *testing.F) {
	corpus := []string{
		"program p; begin end.",
		"program p; global x; proc q(ref a) begin a := x end; begin call q(x) end.",
		"program p; global A[2, 2]; begin A[1, *] := 0 end.",
		"program",
		"{",
		"program p; begin x := := end.",
		"program p; begin x := 1 # end. $ { open",
	}
	for i, src := range corpus {
		f.Add(src, src)
		f.Add(corpus[(i+1)%len(corpus)], src)
	}
	for _, pair := range editShapes() {
		f.Add(pair[0], pair[1])
	}
	f.Fuzz(func(t *testing.T, old, next string) {
		prev, _ := parser.ParseFrom(old, new(parser.Tree))
		checkParseFrom(t, prev, next)
	})
}
