// Package report renders analysis results as human-readable text: the
// per-procedure summary sets, the per-call-site MOD/USE sets, and
// regular sections, in a stable, diff-friendly format used by the CLI
// and the examples.
package report

import (
	"fmt"
	"sort"
	"strings"
	"unicode/utf8"

	"sideeffect/internal/alias"
	"sideeffect/internal/bitset"
	"sideeffect/internal/core"
	"sideeffect/internal/ir"
	"sideeffect/internal/section"
)

// VarNames returns the qualified names of the variables in s sorted by
// string, or nil when s is empty. Once the program's name order pays
// for itself (ir.Program.NameOrder), it sorts the variables by their
// positions in that order, a bit each, and reads the names from it;
// until then it sorts the names.
func VarNames(prog *ir.Program, s *bitset.Set) []string {
	n := s.Len()
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	ord := prog.NameOrder(n)
	if ord == nil {
		s.ForEach(func(id int) { out = append(out, prog.Vars[id].String()) })
		sort.Strings(out)
		return out
	}
	at := bitset.New(len(prog.Vars))
	s.ForEach(func(id int) { at.Add(ord.Position(id)) })
	at.ForEach(func(k int) { out = append(out, ord.At(k)) })
	return out
}

func setString(prog *ir.Program, s *bitset.Set) string {
	return "{" + strings.Join(VarNames(prog, s), ", ") + "}"
}

// runeLen measures a cell in runes; table columns align on it.
func runeLen(s string) int { return utf8.RuneCountInString(s) }

// Table renders aligned columns: rows of cells, first row treated as
// the header.
func Table(rows [][]string) string {
	var b strings.Builder
	writeTable(&b, rows)
	return b.String()
}

// writeTable appends rows to b as an aligned table: the first row is
// the header, underlined with dashes, and every cell but the last of
// its row is padded to its column's width in runes.
func writeTable(b *strings.Builder, rows [][]string) {
	if len(rows) == 0 {
		return
	}
	var widths []int
	for _, r := range rows {
		for i, c := range r {
			if i == len(widths) {
				widths = append(widths, 0)
			}
			widths[i] = max(widths[i], runeLen(c))
		}
	}
	writeRow := func(r []string) {
		for i, c := range r {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(r)-1 {
				for n := widths[i] - runeLen(c); n > 0; n-- {
					b.WriteByte(' ')
				}
			}
		}
		b.WriteByte('\n')
	}
	writeRow(rows[0])
	sep := make([]string, len(rows[0]))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range rows[1:] {
		writeRow(r)
	}
}

// summaryRows is the per-procedure GMOD/GUSE table.
func summaryRows(mod, use *core.Result) [][]string {
	prog := mod.Prog
	rows := [][]string{{"procedure", "GMOD", "GUSE"}}
	for _, p := range prog.Procs {
		rows = append(rows, []string{p.Name, setString(prog, mod.GMOD[p.ID]), setString(prog, use.GMOD[p.ID])})
	}
	return rows
}

// rmodRows is the reference-formal-parameter solution, one row per
// procedure with formals.
func rmodRows(mod *core.Result) [][]string {
	rows := [][]string{{"procedure", "RMOD"}}
	for _, p := range mod.Prog.Procs {
		if len(p.Formals) == 0 {
			continue
		}
		var fs []string
		for _, f := range p.Formals {
			if mod.RMOD.Of(f) {
				fs = append(fs, f.Name)
			}
		}
		rows = append(rows, []string{p.Name, "{" + strings.Join(fs, ", ") + "}"})
	}
	return rows
}

// callSiteRows is the per-call-site MOD and USE table of the final
// sets, indexed by call-site ID.
func callSiteRows(prog *ir.Program, modSets, useSets []*bitset.Set) [][]string {
	rows := [][]string{{"call site", "at", "MOD", "USE"}}
	for _, cs := range prog.Sites {
		rows = append(rows, []string{
			fmt.Sprintf("%s → %s", cs.Caller.Name, cs.Callee.Name),
			cs.Pos.String(),
			setString(prog, modSets[cs.ID]),
			setString(prog, useSets[cs.ID]),
		})
	}
	return rows
}

// sectionRows is the regular-section table, one row per call site that
// affects an array.
func sectionRows(sec *section.Result) [][]string {
	prog := sec.Prog
	rows := [][]string{{"call site", "array sections (" + sec.Kind.String() + ")"}}
	for _, cs := range prog.Sites {
		at := sec.AtCall(cs)
		if len(at) == 0 {
			continue
		}
		ids := make([]int, 0, len(at))
		for id := range at {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		parts := make([]string, len(ids))
		for i, id := range ids {
			parts[i] = at[id].Format(prog.Vars[id].Name, prog.Vars)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%s → %s", cs.Caller.Name, cs.Callee.Name),
			strings.Join(parts, ", "),
		})
	}
	return rows
}

// writeAliases appends the alias pairs per procedure to b, or a note
// that there are none.
func writeAliases(b *strings.Builder, a *alias.Analysis) {
	prog := a.Prog
	rows := [][]string{{"procedure", "alias pairs"}}
	for _, p := range prog.Procs {
		prs := a.Pairs(p)
		if len(prs) == 0 {
			continue
		}
		parts := make([]string, len(prs))
		for i, pr := range prs {
			parts[i] = fmt.Sprintf("⟨%s, %s⟩", prog.Vars[pr.X], prog.Vars[pr.Y])
		}
		rows = append(rows, []string{p.Name, strings.Join(parts, " ")})
	}
	if len(rows) == 1 {
		b.WriteString("(no alias pairs)\n")
		return
	}
	writeTable(b, rows)
}

// Summaries renders the per-procedure GMOD/GUSE table.
func Summaries(mod, use *core.Result) string { return Table(summaryRows(mod, use)) }

// RMODTable renders the reference-formal-parameter solution.
func RMODTable(mod *core.Result) string { return Table(rmodRows(mod)) }

// CallSites renders the per-call-site MOD and USE sets, indexed by
// call-site ID (an analysis's alias-factored sets, or DMOD rows).
func CallSites(prog *ir.Program, modSets, useSets []*bitset.Set) string {
	return Table(callSiteRows(prog, modSets, useSets))
}

// Sections renders the regular-section refinement per call site: for
// each array affected by the call, the subregion descriptor.
func Sections(sec *section.Result) string { return Table(sectionRows(sec)) }

// Aliases renders the alias pairs per procedure.
func Aliases(a *alias.Analysis) string {
	var b strings.Builder
	writeAliases(&b, a)
	return b.String()
}

// Full renders the complete report for a program, every table written
// into one builder. modSets and useSets are the final per-call-site
// sets, indexed by call-site ID.
func Full(mod, use *core.Result, aliases *alias.Analysis, secMod *section.Result, modSets, useSets []*bitset.Set) string {
	prog := mod.Prog
	var b strings.Builder
	fmt.Fprintf(&b, "program %s: %d procedures, %d call sites, %d variables (%d global)\n\n",
		prog.Name, prog.NumProcs(), prog.NumSites(), prog.NumVars(), len(prog.Globals()))
	b.WriteString("== Interprocedural summaries ==\n")
	writeTable(&b, summaryRows(mod, use))
	b.WriteString("\n== Reference formal parameters (RMOD) ==\n")
	writeTable(&b, rmodRows(mod))
	b.WriteString("\n== Alias pairs ==\n")
	writeAliases(&b, aliases)
	b.WriteString("\n== Call sites ==\n")
	writeTable(&b, callSiteRows(prog, modSets, useSets))
	if secMod != nil {
		b.WriteString("\n== Regular sections (MOD) ==\n")
		writeTable(&b, sectionRows(secMod))
	}
	return b.String()
}
