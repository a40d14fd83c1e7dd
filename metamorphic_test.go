package sideeffect

import (
	"fmt"
	"regexp"
	"sort"
	"strings"
	"testing"

	"sideeffect/internal/lang/token"
	"sideeffect/internal/workload"
)

// The metamorphic suite checks the pipeline against semantics-preserving
// program transformations: renaming every identifier, adding an
// unreachable procedure, duplicating call sites, and permuting formal
// parameter lists with consistently permuted arguments. Each transform
// has a known effect on the analysis (usually none, modulo renaming),
// so any drift exposes a dependence on accidental program features —
// declaration order, identifier spelling, call-site multiplicity — that
// the flow equations must not have.

// metaPrograms is the corpus size; metaShort is the -short reduction.
const (
	metaPrograms = 200
	metaShort    = 24
)

func metaCorpusSize(t *testing.T) int {
	t.Helper()
	if testing.Short() {
		return metaShort
	}
	return metaPrograms
}

// metaSrc generates the i-th corpus program. Sizes cycle so the corpus
// spans small and mid-sized call graphs.
func metaSrc(i int) string {
	cfg := workload.DefaultConfig(4+(i%4)*4, int64(1000+i))
	return workload.Emit(workload.Random(cfg))
}

// metaHeap alternates the core allocator across the corpus so every
// transform is exercised on both the arena and the heap.
func metaHeap(i int) bool { return i%2 == 1 }

// procSig is one procedure's summary signature: the qualified GMOD and
// GUSE member names plus the RMOD formal names, each sorted.
type procSig struct {
	MOD, USE, RMOD []string
}

// metaSig analyzes src on the arena, or on the heap allocator when heap
// is set, and extracts the per-procedure signature map.
func metaSig(t *testing.T, src string, heap bool) map[string]procSig {
	t.Helper()
	a, err := AnalyzeWith(src, Options{Workers: 1, heap: heap})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	out := make(map[string]procSig, len(a.Procedures()))
	for _, p := range a.Procedures() {
		mod, _ := a.MOD(p)
		use, _ := a.USE(p)
		rmod, _ := a.RMOD(p)
		sort.Strings(rmod)
		out[p] = procSig{MOD: mod, USE: use, RMOD: rmod}
	}
	return out
}

// mapNames applies rn to every name in a signature, re-sorting, so a
// baseline signature can be compared against a renamed program's.
func (s procSig) mapNames(rn func(string) string) procSig {
	m := func(in []string) []string {
		out := make([]string, len(in))
		for i, n := range in {
			out[i] = rn(n)
		}
		sort.Strings(out)
		return out
	}
	return procSig{MOD: m(s.MOD), USE: m(s.USE), RMOD: m(s.RMOD)}
}

func sigsEqual(a, b procSig) bool {
	eq := func(x, y []string) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	return eq(a.MOD, b.MOD) && eq(a.USE, b.USE) && eq(a.RMOD, b.RMOD)
}

func diffSigs(t *testing.T, label string, want, got map[string]procSig) {
	t.Helper()
	for p, w := range want {
		g, ok := got[p]
		if !ok {
			t.Errorf("%s: procedure %s disappeared", label, p)
			continue
		}
		if !sigsEqual(w, g) {
			t.Errorf("%s: %s signature drifted\nwant %+v\ngot  %+v", label, p, w, g)
		}
	}
}

var metaIdent = regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*`)

// renameIdents rewrites every non-keyword identifier token to rn_<id>
// and returns the rewritten source plus the name map it used.
func renameIdents(src string) (string, map[string]string) {
	names := make(map[string]string)
	out := metaIdent.ReplaceAllStringFunc(src, func(id string) string {
		if _, kw := token.Keywords[id]; kw {
			return id
		}
		r, ok := names[id]
		if !ok {
			r = "rn_" + id
			names[id] = r
		}
		return r
	})
	return out, names
}

// TestMetamorphicRename renames every identifier consistently: the
// analysis must be the same program up to the renaming — every summary
// set maps name-for-name through the rename table.
func TestMetamorphicRename(t *testing.T) {
	n := metaCorpusSize(t)
	for i := 0; i < n; i++ {
		src := metaSrc(i)
		renamed, names := renameIdents(src)
		// Qualified member names are owner.name; both halves rename.
		rn := func(q string) string {
			parts := strings.SplitN(q, ".", 2)
			for j, p := range parts {
				if r, ok := names[p]; ok {
					parts[j] = r
				}
			}
			return strings.Join(parts, ".")
		}
		heap := metaHeap(i)
		base := metaSig(t, src, heap)
		got := metaSig(t, renamed, heap)
		want := make(map[string]procSig, len(base))
		for p, s := range base {
			want[rn(p)] = s.mapNames(rn)
		}
		if len(want) != len(got) {
			t.Fatalf("program %d: procedure count changed: %d -> %d", i, len(want), len(got))
		}
		diffSigs(t, fmt.Sprintf("program %d (heap=%v)", i, heap), want, got)
		if t.Failed() {
			t.FailNow()
		}
	}
}

// addDeadProc declares a fresh global and an unreachable procedure that
// modifies it, inserted between the last procedure and the main body.
func addDeadProc(src string) string {
	i := strings.Index(src, "\n")
	src = src[:i+1] + "global dead_g;\n" + src[i+1:]
	j := strings.LastIndex(src, "\nbegin\n")
	dead := "proc dead_p(ref dead_x)\nbegin\n  dead_x := 0;\n  dead_g := 0;\n  write dead_g\nend;\n"
	return src[:j+1] + dead + src[j+1:]
}

// TestMetamorphicDeadProc adds an uncalled procedure (touching a fresh
// global): the prune stage must drop it — it never reaches the solvers
// — and no reachable procedure's summary may change. GMOD/GUSE are
// driven by the call multi-graph, not by what is merely declared.
func TestMetamorphicDeadProc(t *testing.T) {
	n := metaCorpusSize(t)
	for i := 0; i < n; i++ {
		src := metaSrc(i)
		heap := metaHeap(i)
		base := metaSig(t, src, heap)
		got := metaSig(t, addDeadProc(src), heap)
		if len(got) != len(base) {
			t.Fatalf("program %d: procedure count changed: %d -> %d", i, len(base), len(got))
		}
		if _, ok := got["dead_p"]; ok {
			t.Fatalf("program %d: unreachable dead_p survived pruning", i)
		}
		diffSigs(t, fmt.Sprintf("program %d (heap=%v)", i, heap), base, got)
		if t.Failed() {
			t.FailNow()
		}
	}
}

var metaCall = regexp.MustCompile(`^(\s*)call\s+(\w+)\((.*)\);?$`)

// duplicateCalls repeats every call statement: MOD/USE are may-facts
// closed under union, so call-site multiplicity must not matter.
func duplicateCalls(src string) string {
	lines := strings.Split(src, "\n")
	out := make([]string, 0, 2*len(lines))
	for _, l := range lines {
		out = append(out, l)
		if metaCall.MatchString(l) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

// TestMetamorphicCallDup duplicates every call site and checks the
// summary sets are byte-identical.
func TestMetamorphicCallDup(t *testing.T) {
	n := metaCorpusSize(t)
	for i := 0; i < n; i++ {
		src := metaSrc(i)
		heap := metaHeap(i)
		base := metaSig(t, src, heap)
		got := metaSig(t, duplicateCalls(src), heap)
		if len(got) != len(base) {
			t.Fatalf("program %d: procedure count changed", i)
		}
		diffSigs(t, fmt.Sprintf("program %d (heap=%v)", i, heap), base, got)
		if t.Failed() {
			t.FailNow()
		}
	}
}

// splitTopLevel splits s on commas outside any bracket nesting, so an
// array formal "ref a[*, *]" or a subscripted actual "ga0[1, 2]" stays
// one piece.
func splitTopLevel(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '[', '(':
			depth++
		case ']', ')':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	out = append(out, strings.TrimSpace(s[start:]))
	return out
}

func reverseStrings(in []string) []string {
	out := make([]string, len(in))
	for i, s := range in {
		out[len(in)-1-i] = s
	}
	return out
}

var metaProcHeader = regexp.MustCompile(`^(\s*)proc\s+(\w+)\((.*)\)\s*$`)

// permuteFormals reverses every procedure's formal list and every call's
// argument list in lockstep. The rebinding is consistent, so only the
// declaration order changes — never which actual reaches which formal.
func permuteFormals(src string) string {
	lines := strings.Split(src, "\n")
	for i, l := range lines {
		if m := metaProcHeader.FindStringSubmatch(l); m != nil {
			lines[i] = fmt.Sprintf("%sproc %s(%s)", m[1], m[2], strings.Join(reverseStrings(splitTopLevel(m[3])), ", "))
			continue
		}
		if m := metaCall.FindStringSubmatch(l); m != nil {
			lines[i] = fmt.Sprintf("%scall %s(%s);", m[1], m[2], strings.Join(reverseStrings(splitTopLevel(m[3])), ", "))
		}
	}
	return strings.Join(lines, "\n")
}

// TestMetamorphicParamPermute reverses each formal list with matching
// argument reversal at every call: the binding graph is isomorphic, so
// every summary set must be unchanged.
func TestMetamorphicParamPermute(t *testing.T) {
	n := metaCorpusSize(t)
	for i := 0; i < n; i++ {
		src := metaSrc(i)
		heap := metaHeap(i)
		base := metaSig(t, src, heap)
		got := metaSig(t, permuteFormals(src), heap)
		if len(got) != len(base) {
			t.Fatalf("program %d: procedure count changed", i)
		}
		diffSigs(t, fmt.Sprintf("program %d (heap=%v)", i, heap), base, got)
		if t.Failed() {
			t.FailNow()
		}
	}
}

// TestMetamorphicPoliciesAgree pins a corpus subset under both core
// allocators at once: the transform invariants above alternate them,
// and this closes the loop by checking the arena against the heap
// reference on the transformed sources too.
func TestMetamorphicPoliciesAgree(t *testing.T) {
	n := 6
	if testing.Short() {
		n = 2
	}
	transforms := map[string]func(string) string{
		"identity": func(s string) string { return s },
		"dup":      duplicateCalls,
		"permute":  permuteFormals,
	}
	for i := 0; i < n; i++ {
		src := metaSrc(i)
		for name, tr := range transforms {
			tsrc := tr(src)
			diffSigs(t, fmt.Sprintf("program %d %s (arena vs heap)", i, name), metaSig(t, tsrc, true), metaSig(t, tsrc, false))
			if t.Failed() {
				t.FailNow()
			}
		}
	}
}
