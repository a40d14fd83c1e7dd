// Package gofront is the Go-source frontend: it loads real Go
// packages with the standard library's parser and type checker and
// lowers them onto the ir.Program model, so the interprocedural
// MOD/USE/RMOD analyses, the modlint rules, and the serving layers run
// on real repositories exactly as they do on MiniPL.
//
// The lowering takes the conservative, Banning-compatible cut of Go's
// abstraction gap (the precision tier — Dyck-reachability alias
// resolution, generalized points-to graphs — is a separate backend per
// the roadmap):
//
//   - A parameter whose type can reach shared mutable storage
//     (pointer, slice, map, channel, interface, or any composite
//     containing one) lowers to a by-reference formal; everything else
//     (numbers, strings, value structs/arrays of them) lowers to a
//     by-value formal.
//   - A write that stays on the variable itself (x = v, valueStruct.f
//     = v, rebinding a slice header) is a local effect; a write that
//     crosses a reference hop (*p = v, s[i] = v, m[k] = v, ptr.f = v,
//     *s = append(*s, x), send on a channel) modifies the storage
//     reachable from the access path's root, resolved through a small
//     flow-insensitive alias pass over the function body.
//   - Closures lower to nested procedures (the lexical-nesting
//     machinery of Section 3.3/4 of the paper carries captured
//     variables for free). An immediately invoked closure gets a real
//     call site; a closure that escapes (stored, returned, passed)
//     gets a conservative "may run" call site in its creator.
//   - Constructs the model cannot represent — cgo, unsafe, reflection,
//     calls into unanalyzed packages with untrackable arguments —
//     degrade soundly to worst-case MOD/USE of the function's
//     reachable reference formals, address-taken locals, and package
//     globals, and are recorded as per-function Confidence notes.
//
// Effects that leave the package (I/O, writes to another package's
// state) are modeled by a synthetic package-level global named
// "$external", created lazily the first time a function calls out of
// the analyzed package; a function whose GMOD contains $external is
// never reported pure.
package gofront

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"sideeffect/internal/ir"
)

// LoweringVersion identifies the lowering semantics. It participates
// in every content-addressed cache key derived from Go sources, so a
// persisted result produced by an older lowering (coarser struct
// tracking, package-boundary degradation) can never be served for the
// same bytes after the frontend changed what those bytes mean (version
// 3: build constraints select a directory's files).
const LoweringVersion = 3

// Confidence grades how faithfully one function was lowered.
type Confidence int

// Confidence levels.
const (
	// High means every construct in the function body is modeled
	// precisely by the conservative cut.
	High Confidence = iota
	// Degraded means at least one construct forced the worst-case
	// fallback; the facts are sound but over-approximate.
	Degraded
)

// String renders the confidence level.
func (c Confidence) String() string {
	if c == High {
		return "high"
	}
	return "degraded"
}

// MarshalJSON renders the confidence as its name.
func (c Confidence) MarshalJSON() ([]byte, error) {
	return []byte(`"` + c.String() + `"`), nil
}

// UnmarshalJSON parses the name form written by MarshalJSON, so notes
// round-trip through API clients.
func (c *Confidence) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"high"`:
		*c = High
	case `"degraded"`:
		*c = Degraded
	default:
		return fmt.Errorf("gofront: unknown confidence %s", b)
	}
	return nil
}

// Note is one function's lowering-confidence record.
type Note struct {
	// Proc is the ir procedure name ("Reset", "Set.Len", "F$fn1"; in
	// module mode the name is package-qualified, e.g.
	// "internal/core.Analyze").
	Proc string `json:"proc"`
	// Pkg is the module-relative package the function belongs to;
	// empty in single-package mode.
	Pkg string `json:"pkg,omitempty"`
	// File is the base name of the file declaring the function (the
	// module-relative path in module mode).
	File string `json:"file,omitempty"`
	// Confidence is High unless a degradation was recorded.
	Confidence Confidence `json:"confidence"`
	// Reasons lists the degradations, sorted and deduplicated; empty
	// for High confidence.
	Reasons []string `json:"reasons,omitempty"`
}

// Package is one lowered Go package, ready for analysis.
type Package struct {
	// Name is the Go package name; Dir the directory it was loaded
	// from ("" for in-memory sources); Path the display path used in
	// reports.
	Name string
	Dir  string
	Path string
	// Files lists the source file base names, sorted.
	Files []string
	// Hash is the content-addressed identity of the package: a SHA-256
	// over the language tag plus every (name, content) pair in file
	// order. Two loads of byte-identical sources share it.
	Hash string
	// Prog is the lowered program model. It is not pruned: the
	// synthetic $main is empty, and every top-level function keeps its
	// own summary.
	Prog *ir.Program
	// Notes holds one confidence record per lowered function, in
	// procedure ID order ($main excluded).
	Notes []Note
	// TypeErrors counts type-checker diagnostics that were tolerated
	// during loading (unresolved imports degrade, they do not fail).
	TypeErrors int
	// Module is true when this result is a whole-module lowering: one
	// shared program holding every module-local package, with
	// cross-package calls resolved and interface calls devirtualized.
	Module bool
	// Packages lists the module-relative package directories lowered
	// into the shared program, in topological (import) order. Empty in
	// single-package mode.
	Packages []string
	// Devirtualized counts the interface call sites resolved to the
	// closed set of module-local implementations instead of degrading.
	Devirtualized int
}

// Note returns the confidence record for the named procedure, or nil.
func (p *Package) Note(proc string) *Note {
	for i := range p.Notes {
		if p.Notes[i].Proc == proc {
			return &p.Notes[i]
		}
	}
	return nil
}

// Degraded returns the names of procedures lowered with degraded
// confidence, in procedure ID order.
func (p *Package) Degraded() []string {
	var out []string
	for _, n := range p.Notes {
		if n.Confidence == Degraded {
			out = append(out, n.Proc)
		}
	}
	return out
}

// DegradedByPackage counts degraded procedures per module-relative
// package. Single-package results report under the "" key.
func (p *Package) DegradedByPackage() map[string]int {
	out := map[string]int{}
	for _, n := range p.Notes {
		if n.Confidence == Degraded {
			out[n.Pkg]++
		}
	}
	return out
}

// DegradedRecord is the machine-readable form of one degraded
// function, emitted by the CLIs' -degraded=json mode so CI can diff
// precision regressions structurally instead of scraping stderr.
type DegradedRecord struct {
	Pkg     string   `json:"pkg,omitempty"`
	Proc    string   `json:"proc"`
	File    string   `json:"file,omitempty"`
	Reasons []string `json:"reasons"`
}

// DegradedRecords renders the degraded notes as records, in procedure
// ID order.
func (p *Package) DegradedRecords() []DegradedRecord {
	var out []DegradedRecord
	for _, n := range p.Notes {
		if n.Confidence != Degraded {
			continue
		}
		out = append(out, DegradedRecord{Pkg: n.Pkg, Proc: n.Proc, File: n.File, Reasons: n.Reasons})
	}
	return out
}

// DegradedJSON renders the degraded-function list of several analyzed
// packages as one deterministic JSON document:
//
//	{"degraded": [{"path": ..., "count": N, "functions": [...]}, ...]}
func DegradedJSON(pkgs []*Package) ([]byte, error) {
	type pkgRec struct {
		Path      string           `json:"path"`
		Count     int              `json:"count"`
		Functions []DegradedRecord `json:"functions,omitempty"`
	}
	doc := struct {
		Degraded []pkgRec `json:"degraded"`
	}{Degraded: []pkgRec{}}
	for _, p := range pkgs {
		recs := p.DegradedRecords()
		doc.Degraded = append(doc.Degraded, pkgRec{Path: p.Path, Count: len(recs), Functions: recs})
	}
	return json.MarshalIndent(doc, "", "  ")
}

// ConfidenceReport renders the per-function confidence table appended
// to analysis reports for Go packages.
func (p *Package) ConfidenceReport() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Lowering confidence (%s) ==\n", p.Path)
	w := len("procedure")
	for _, n := range p.Notes {
		if len(n.Proc) > w {
			w = len(n.Proc)
		}
	}
	fmt.Fprintf(&b, "%-*s  %-8s  %s\n", w, "procedure", "level", "notes")
	fmt.Fprintf(&b, "%s  %s  %s\n", strings.Repeat("-", w), "--------", "-----")
	for _, n := range p.Notes {
		reasons := "-"
		if len(n.Reasons) > 0 {
			reasons = strings.Join(n.Reasons, "; ")
		}
		fmt.Fprintf(&b, "%-*s  %-8s  %s\n", w, n.Proc, n.Confidence, reasons)
	}
	return b.String()
}

// sortNotes orders notes by procedure ID order as recorded and
// canonicalizes each note's reasons.
func sortNotes(notes []Note) {
	for i := range notes {
		rs := notes[i].Reasons
		sort.Strings(rs)
		notes[i].Reasons = dedup(rs)
	}
}

// dedup removes adjacent duplicates from a sorted slice.
func dedup(s []string) []string {
	out := s[:0]
	for i, v := range s {
		if i == 0 || s[i-1] != v {
			out = append(out, v)
		}
	}
	return out
}
