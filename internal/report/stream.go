package report

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"sideeffect/internal/alias"
	"sideeffect/internal/core"
	"sideeffect/internal/section"
)

// This file holds the streaming counterparts of the string renderers:
// every Write* function produces bytes identical to its string twin
// but emits them through a buffered writer one table row at a time, so
// a 100k-procedure report flows to disk without ever existing as a
// whole. The string versions are retained as thin wrappers for callers
// that want a value.

// rowSeq yields table rows in order; writeTable iterates it twice
// (widths, then emission), so a sequence must be replayable.
type rowSeq = func(yield func([]string) bool)

// writeTable streams an aligned table — bytes identical to Table — in
// two passes over the rows: the first computes column widths, the
// second writes, so no row set is ever held. The first yielded row is
// the header.
func writeTable(bw *bufio.Writer, rows rowSeq) {
	var widths []int
	any := false
	rows(func(r []string) bool {
		any = true
		for i, c := range r {
			if i == len(widths) {
				widths = append(widths, 0)
			}
			if w := runeLen(c); w > widths[i] {
				widths[i] = w
			}
		}
		return true
	})
	if !any {
		return
	}
	writeRow := func(r []string) {
		for i, c := range r {
			if i > 0 {
				bw.WriteString("  ")
			}
			bw.WriteString(c)
			if i < len(r)-1 {
				for n := widths[i] - runeLen(c); n > 0; n-- {
					bw.WriteByte(' ')
				}
			}
		}
		bw.WriteByte('\n')
	}
	first := true
	rows(func(r []string) bool {
		writeRow(r)
		if first {
			first = false
			sep := make([]string, len(r))
			for i := range sep {
				sep[i] = strings.Repeat("-", widths[i])
			}
			writeRow(sep)
		}
		return true
	})
}

// WriteSummaries streams the per-procedure GMOD/GUSE table.
func WriteSummaries(w io.Writer, mod, use *core.Result) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	prog := mod.Prog
	writeTable(bw, func(yield func([]string) bool) {
		if !yield([]string{"procedure", "GMOD", "GUSE"}) {
			return
		}
		for _, p := range prog.Procs {
			if !yield([]string{p.Name, setString(prog, mod.GMOD[p.ID]), setString(prog, use.GMOD[p.ID])}) {
				return
			}
		}
	})
	return bw.Flush()
}

// WriteRMODTable streams the reference-formal-parameter solution.
func WriteRMODTable(w io.Writer, mod *core.Result) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	prog := mod.Prog
	writeTable(bw, func(yield func([]string) bool) {
		if !yield([]string{"procedure", "RMOD"}) {
			return
		}
		for _, p := range prog.Procs {
			if len(p.Formals) == 0 {
				continue
			}
			var fs []string
			for _, f := range p.Formals {
				if mod.RMOD.Of(f) {
					fs = append(fs, f.Name)
				}
			}
			if !yield([]string{p.Name, "{" + strings.Join(fs, ", ") + "}"}) {
				return
			}
		}
	})
	return bw.Flush()
}

// WriteCallSites streams the per-call-site MOD and USE sets.
func WriteCallSites(w io.Writer, mod, use *core.Result, aliases *alias.Analysis) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	prog := mod.Prog
	modSets, useSets := mod.DMOD, use.DMOD
	if aliases != nil {
		modSets = aliases.Factor(mod.DMOD)
		useSets = aliases.Factor(use.DMOD)
	}
	writeTable(bw, func(yield func([]string) bool) {
		if !yield([]string{"call site", "at", "MOD", "USE"}) {
			return
		}
		for _, cs := range prog.Sites {
			if !yield([]string{
				fmt.Sprintf("%s → %s", cs.Caller.Name, cs.Callee.Name),
				cs.Pos.String(),
				setString(prog, modSets[cs.ID]),
				setString(prog, useSets[cs.ID]),
			}) {
				return
			}
		}
	})
	return bw.Flush()
}

// WriteSections streams the regular-section refinement per call site.
func WriteSections(w io.Writer, sec *section.Result) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	prog := sec.Prog
	writeTable(bw, func(yield func([]string) bool) {
		if !yield([]string{"call site", "array sections (" + sec.Kind.String() + ")"}) {
			return
		}
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
			var parts []string
			for _, id := range ids {
				parts = append(parts, at[id].Format(prog.Vars[id].Name, prog.Vars))
			}
			if !yield([]string{
				fmt.Sprintf("%s → %s", cs.Caller.Name, cs.Callee.Name),
				strings.Join(parts, ", "),
			}) {
				return
			}
		}
	})
	return bw.Flush()
}

// WriteAliases streams the alias pairs per procedure.
func WriteAliases(w io.Writer, a *alias.Analysis) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	prog := a.Prog
	empty := true
	for _, p := range prog.Procs {
		if len(a.Pairs(p)) > 0 {
			empty = false
			break
		}
	}
	if empty {
		bw.WriteString("(no alias pairs)\n")
		return bw.Flush()
	}
	writeTable(bw, func(yield func([]string) bool) {
		if !yield([]string{"procedure", "alias pairs"}) {
			return
		}
		for _, p := range prog.Procs {
			prs := a.Pairs(p)
			if len(prs) == 0 {
				continue
			}
			var parts []string
			for _, pr := range prs {
				parts = append(parts, fmt.Sprintf("⟨%s, %s⟩", prog.Vars[pr.X], prog.Vars[pr.Y]))
			}
			if !yield([]string{p.Name, strings.Join(parts, " ")}) {
				return
			}
		}
	})
	return bw.Flush()
}

// WriteFull streams the complete report, section by section.
func WriteFull(w io.Writer, mod, use *core.Result, aliases *alias.Analysis, secMod *section.Result) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	prog := mod.Prog
	fmt.Fprintf(bw, "program %s: %d procedures, %d call sites, %d variables (%d global)\n\n",
		prog.Name, prog.NumProcs(), prog.NumSites(), prog.NumVars(), len(prog.Globals()))
	bw.WriteString("== Interprocedural summaries ==\n")
	WriteSummaries(bw, mod, use)
	bw.WriteString("\n== Reference formal parameters (RMOD) ==\n")
	WriteRMODTable(bw, mod)
	bw.WriteString("\n== Alias pairs ==\n")
	WriteAliases(bw, aliases)
	bw.WriteString("\n== Call sites ==\n")
	WriteCallSites(bw, mod, use, aliases)
	if secMod != nil {
		bw.WriteString("\n== Regular sections (MOD) ==\n")
		WriteSections(bw, secMod)
	}
	return bw.Flush()
}
