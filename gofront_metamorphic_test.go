package sideeffect

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"sideeffect/internal/ir"
)

// canonicalGoSummary renders the caller-visible facts of every named
// top-level function, independent of local naming, declaration order,
// and closure structure: purity (nothing outside the frame in GMOD),
// RMOD formal names, and global MOD/USE names, sorted by procedure
// name. Synthetic procedures ($main, closures like F$fn0) are folded
// out — their effects already flow into their hosts.
func canonicalGoSummary(r GoResult) string {
	a := r.Analysis
	var lines []string
	for _, p := range a.Prog.Procs {
		if p.IsMain || strings.Contains(p.Name, "$fn") {
			continue
		}
		var rmod []string
		for _, f := range p.Formals {
			if a.Mod.RMOD.Of(f) {
				rmod = append(rmod, f.Name)
			}
		}
		var gmod, guse []string
		collect := func(set interface{ ForEach(func(int)) }, out *[]string) {
			set.ForEach(func(id int) {
				v := a.Prog.Vars[id]
				if v.Kind == ir.Global {
					*out = append(*out, v.Name)
				}
			})
		}
		collect(a.Mod.GMOD[p.ID], &gmod)
		collect(a.Use.GMOD[p.ID], &guse)
		pure := true
		a.Mod.GMOD[p.ID].ForEach(func(id int) {
			v := a.Prog.Vars[id]
			if v.Owner != p || v.Kind == ir.FormalRef {
				pure = false
			}
		})
		sort.Strings(gmod)
		sort.Strings(guse)
		lines = append(lines, fmt.Sprintf("%s pure=%v rmod={%s} gmod={%s} guse={%s}",
			p.Name, pure, strings.Join(rmod, ","), strings.Join(gmod, ","), strings.Join(guse, ",")))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// goBase is the reference program for the metamorphic pairs: a global
// accumulator, a pointer write, a slice fill, and a pure helper.
const goBase = `package meta

var total int

func Bump(p *int, by int) {
	step := by
	*p += step
	total += step
}

func Fill(s []int, v int) {
	for i := range s {
		s[i] = v
	}
}

func Pure(a, b int) int {
	t := a + b
	return t * 2
}
`

// goRenamed is goBase with every local and formal-body temporary
// renamed — caller-visible facts cannot depend on local names.
// (Formal names are part of the public summary, so they stay.)
const goRenamed = `package meta

var total int

func Bump(p *int, by int) {
	delta := by
	*p += delta
	total += delta
}

func Fill(s []int, v int) {
	for idx := range s {
		s[idx] = v
	}
}

func Pure(a, b int) int {
	acc := a + b
	return acc * 2
}
`

// goReordered is goBase with the declarations permuted — lowering
// must not depend on source order.
const goReordered = `package meta

func Pure(a, b int) int {
	t := a + b
	return t * 2
}

func Fill(s []int, v int) {
	for i := range s {
		s[i] = v
	}
}

var total int

func Bump(p *int, by int) {
	step := by
	*p += step
	total += step
}
`

// goClosureWrapped is goBase with each body routed through an
// immediately-invoked or locally bound closure: effects must flow out
// of the literal into the host unchanged.
const goClosureWrapped = `package meta

var total int

func Bump(p *int, by int) {
	func() {
		step := by
		*p += step
		total += step
	}()
}

func Fill(s []int, v int) {
	set := func(i int) { s[i] = v }
	for i := range s {
		set(i)
	}
}

func Pure(a, b int) int {
	mk := func() int {
		t := a + b
		return t * 2
	}
	return mk()
}
`

// TestGoFrontMetamorphic checks that semantics-preserving source
// transforms leave the canonical summary byte-identical: renaming
// locals, reordering declarations, and wrapping bodies in closures
// are all invisible to callers.
func TestGoFrontMetamorphic(t *testing.T) {
	variants := []struct{ name, src string }{
		{"base", goBase},
		{"renamed-locals", goRenamed},
		{"reordered-decls", goReordered},
		{"closure-wrapped", goClosureWrapped},
	}
	var want string
	for _, v := range variants {
		r, err := AnalyzeGoSource("meta.go", v.src, Options{})
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		got := canonicalGoSummary(r)
		if v.name == "base" {
			want = got
			// The base must actually demonstrate the interesting facts,
			// or the invariance below would be vacuous.
			for _, frag := range []string{
				"Bump pure=false rmod={p} gmod={total}",
				"Fill pure=false rmod={s}",
				"Pure pure=true rmod={}",
			} {
				if !strings.Contains(got, frag) {
					t.Fatalf("base summary missing %q:\n%s", frag, got)
				}
			}
			continue
		}
		if got != want {
			t.Errorf("%s: canonical summary drifted from base\n--- base\n%s--- %s\n%s",
				v.name, want, v.name, got)
		}
	}
}

// TestGoFrontDeterminism pins byte-identical full reports — analysis
// plus confidence table, across every fixture package — for the
// sequential schedule, a four-worker pool, and the heap allocator.
// The Go path must be as schedule- and allocator-independent
// as the MiniPL path.
func TestGoFrontDeterminism(t *testing.T) {
	dirs := corpusDirs(t)
	render := func(opts Options) string {
		results, err := AnalyzeGoPackages(dirs, opts)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, r := range results {
			sb.WriteString(r.GoReport())
		}
		return sb.String()
	}
	base := render(Options{Workers: 1})
	runs := []struct {
		name string
		opts Options
	}{
		{"parallel-j4", Options{Workers: 4}},
		{"sequential-heap", Options{Workers: 1, heap: true}},
		{"parallel-j4-heap", Options{Workers: 4, heap: true}},
		{"sequential-again", Options{Workers: 1}},
	}
	for _, run := range runs {
		if got := render(run.opts); got != base {
			t.Errorf("%s: report differs from sequential baseline", run.name)
		}
	}

	// Loading itself must be deterministic: same tree, same hash.
	a, err := AnalyzeGoPackages([]string{filepath.Join("testdata", "gofront", "pure")}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := AnalyzeGoPackages([]string{filepath.Join("testdata", "gofront", "pure")}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a[0].Pkg.Hash != b[0].Pkg.Hash {
		t.Errorf("package hash unstable: %s vs %s", a[0].Pkg.Hash, b[0].Pkg.Hash)
	}
}
