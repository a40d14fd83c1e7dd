// Package lint is the interprocedural diagnostics engine: it consumes
// a completed side-effect analysis (the MOD/USE summaries, RMOD, alias
// pairs, and regular-section loop verdicts) and turns the facts into
// positioned, deterministic findings a programmer can act on.
//
// This is the workload the paper's introduction motivates: the
// programming environment computes summaries so that it can *answer
// questions* about the program — "can I pass this by value?", "may
// these calls be reordered?", "does this loop parallelize?". Each rule
// here is one such question, answered purely from the analysis facts
// (no rule re-inspects source text).
//
// The engine is configuration-driven (rules can be enabled, disabled,
// and re-leveled), and its output is rendered by three writers: human
// text, a stable JSON schema, and SARIF 2.1.0 for editor and CI
// integration. Diagnostics are totally ordered by (line, col, rule ID,
// subject, message), ties kept in emission order, so repeated and
// concurrent runs are byte-identical.
//
// Once the summaries exist, a question should cost what the paper's
// solver costs: one Run takes O(N+S) bit-vector steps, for N
// procedures and S call sites, plus O(1) work per scanned alias pair
// and per finding, and an O(F log F) sort of the F findings. Per rule:
//
//   - SE001: one RMOD lookup per formal.
//   - SE002: one Len per procedure, one lookup per local and formal.
//   - SE003: two DMOD lookups per pair of ALIAS(p) per call site of p.
//   - SE004: 2N unions, then one lookup per global.
//   - SE005: N unions, then at most seven set operations per call
//     site, copies into one reused scratch set included, plus four
//     per call site of a procedure where the first test leaves some
//     call undecided.
//   - SE006, SE007: O(1) per recorded loop.
package lint

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"sideeffect/internal/alias"
	"sideeffect/internal/bitset"
	"sideeffect/internal/core"
	"sideeffect/internal/ir"
	"sideeffect/internal/lang/token"
)

// Severity grades a finding.
type Severity int

// Severities, in ascending order.
const (
	Info Severity = iota
	Warning
	Error
)

// String renders the severity.
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	}
	return fmt.Sprintf("Severity(%d)", int(s))
}

// MarshalJSON renders the severity as its name.
func (s Severity) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// ParseSeverity resolves a severity name.
func ParseSeverity(name string) (Severity, error) {
	switch name {
	case "info":
		return Info, nil
	case "warning":
		return Warning, nil
	case "error":
		return Error, nil
	}
	return 0, fmt.Errorf("lint: unknown severity %q (want info, warning, or error)", name)
}

// Diagnostic is one finding. Pos is a position in the analyzed source
// when the program came from the parser; programs built directly
// through ir.Builder carry zero positions, which the writers clamp.
type Diagnostic struct {
	// Rule is the stable rule ID ("SE001"); Name its readable slug.
	Rule string
	Name string
	// Severity after configuration overrides.
	Severity Severity
	// Proc names the enclosing procedure ("" for program-level
	// findings such as dead globals).
	Proc string
	// Subject is the entity the finding is about (a variable,
	// procedure, or loop-index name) — the token Pos points at.
	Subject string
	Pos     token.Pos
	Message string
}

// LoopInfo is one counted loop's pre-computed Section-6 verdict, fed
// to the loop rules by the caller (the verdict logic lives with the
// public LoopParallelizable API, not here).
type LoopInfo struct {
	// Proc is the procedure containing the loop; Index the loop
	// variable's source name.
	Proc  string
	Index string
	Pos   token.Pos
	// Parallel is the Section-6 verdict; Conflicts the serializing
	// dependences when false; Sections the per-array evidence.
	Parallel  bool
	Conflicts []string
	Sections  []string
}

// Input bundles the analysis facts the rules consume. All fields are
// read-only to the engine.
type Input struct {
	Prog *ir.Program
	// Mod and Use are the two core problem results (GMOD/GUSE, RMOD,
	// DMOD/DUSE).
	Mod, Use *core.Result
	// Aliases is the Section-5 alias-pair analysis.
	Aliases *alias.Analysis
	// ModSets and UseSets are the final alias-factored per-call-site
	// answers, indexed by call-site ID.
	ModSets, UseSets []*bitset.Set
	// Loops carries one verdict per recorded loop, in program order.
	Loops []LoopInfo
}

// Report is the outcome of one engine run over one program.
type Report struct {
	// Diags is sorted by (line, col, rule ID, subject, message).
	Diags []Diagnostic
	// Counts is the number of findings per rule ID, every selected
	// rule present (zero counts included, for metrics).
	Counts map[string]int
}

// Empty reports whether the run produced no findings.
func (r *Report) Empty() bool { return len(r.Diags) == 0 }

// Run executes the selected rules over the input. The error reports
// configuration mistakes (unknown rule or severity names); an input
// with no findings yields an empty, non-nil report.
func Run(in *Input, cfg Config) (*Report, error) {
	sel, err := cfg.selection()
	if err != nil {
		return nil, err
	}
	rep := &Report{Counts: make(map[string]int)}
	var found findings
	for _, rl := range registry {
		sev, on := sel.level(rl)
		if !on {
			continue
		}
		rep.Counts[rl.ID] = 0
		if sev < cfg.MinSeverity {
			continue // selected but filtered: count stays visible at 0
		}
		cfg.Prof.Do("lint."+rl.ID, func() {
			n := found.n
			rl.run(in, func(d Diagnostic) {
				d.Rule, d.Name, d.Severity = rl.ID, rl.Name, sev
				found.add(d)
			})
			rep.Counts[rl.ID] = found.n - n
		})
	}
	rep.Diags = found.flatten()
	sortDiagnostics(rep.Diags)
	return rep, nil
}

// findings collects a run's diagnostics in emission order, in chunks
// that each hold as many as all the chunks before them, from 64 up to
// maxChunk, and flattens them into one slice of the exact length at
// the end. Each finding is written twice; one slice grown by append
// writes it about five times, since a large slice grows by a quarter
// at a time.
type findings struct {
	chunks [][]Diagnostic
	n      int
}

// maxChunk bounds a chunk at about 400 KB, so a run leaves at most that
// much unused.
const maxChunk = 4096

func (f *findings) add(d Diagnostic) {
	k := len(f.chunks) - 1
	if k < 0 || len(f.chunks[k]) == cap(f.chunks[k]) {
		f.chunks = append(f.chunks, make([]Diagnostic, 0, min(max(f.n, 64), maxChunk)))
		k++
	}
	f.chunks[k] = append(f.chunks[k], d)
	f.n++
}

// flatten returns the findings in emission order; nil when there are
// none.
func (f *findings) flatten() []Diagnostic {
	if f.n == 0 {
		return nil
	}
	out := make([]Diagnostic, 0, f.n)
	for _, c := range f.chunks {
		out = append(out, c...)
	}
	return out
}

// sortDiagnostics imposes the engine's total order: position first
// (line, then column), then rule ID, then subject and message as
// tie-breakers for co-located findings, and emission order last, which
// is the order a stable sort on the first five keys gives. It sorts an
// index permutation rather than the findings, then moves each finding
// once along the permutation's cycles: the []int32 is its only
// allocation.
func sortDiagnostics(ds []Diagnostic) {
	perm := make([]int32, len(ds))
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(i, j int32) int {
		a, b := &ds[i], &ds[j]
		if c := cmp.Compare(a.Pos.Line, b.Pos.Line); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Pos.Col, b.Pos.Col); c != 0 {
			return c
		}
		if c := strings.Compare(a.Rule, b.Rule); c != 0 {
			return c
		}
		if c := strings.Compare(a.Subject, b.Subject); c != 0 {
			return c
		}
		if c := strings.Compare(a.Message, b.Message); c != 0 {
			return c
		}
		return cmp.Compare(i, j)
	})
	// perm[k] names the finding that belongs at k. Each cycle is
	// rotated through one spare, and a placed slot is marked perm[k] = k.
	for start := range perm {
		if int(perm[start]) == start {
			continue
		}
		spare := ds[start]
		k := start
		for {
			next := int(perm[k])
			perm[k] = int32(k)
			if next == start {
				ds[k] = spare
				break
			}
			ds[k] = ds[next]
			k = next
		}
	}
}
