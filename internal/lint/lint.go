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
// and per finding. The rules report compact records (a position, the
// rule, the IDs to render from and a tie key); the engine orders the F
// records by integer keys in O(F + lines + V), for V variables, with
// one stable counting sort per key (stage "lint.order"), then renders
// each Diagnostic once into its slot (stage "lint.render"). Strings
// are compared only among records whose integer keys all tie: at zero
// positions, at positions that collide across the files of one Go
// package, and where names void SE003's tie key. Per rule:
//
//   - SE001: one RMOD lookup per formal.
//   - SE002: one Len per procedure, one lookup per local and formal.
//   - SE003: two DMOD lookups per pair of ALIAS(p) per call site of p;
//     its tie key reads the program's name order
//     (ir.Program.NameOrder), and the messages of one call site share
//     one allocation.
//   - SE004: 2N unions, then one lookup per global.
//   - SE005: N unions, then at most seven set operations per call
//     site, copies into one reused scratch set included, plus four
//     per call site of a procedure where the first test leaves some
//     call undecided.
//   - SE006, SE007: O(1) per recorded loop.
package lint

import (
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
	var recs []record
	var sev [len(registry)]Severity
	for ri := range registry {
		rl := &registry[ri]
		s, on := sel.level(*rl)
		if !on {
			continue
		}
		rep.Counts[rl.ID] = 0
		if s < cfg.MinSeverity {
			continue // selected but filtered: count stays visible at 0
		}
		sev[ri] = s
		cfg.Prof.Do("lint."+rl.ID, func() {
			start := len(recs)
			rl.run(in, func(r record) {
				// Doubling copies a record about once as the slice
				// grows; append's quarter steps would copy it about
				// four times.
				if len(recs) == cap(recs) {
					recs = slices.Grow(recs, len(recs))
				}
				r.rule = uint8(ri)
				recs = append(recs, r)
			})
			mine := recs[start:]
			if rl.tie != nil && len(mine) > 0 {
				if ord := in.Prog.NameOrder(len(mine)); ord != nil && ord.SpaceFree() {
					for i := range mine {
						mine[i].tie = rl.tie(ord, &mine[i])
					}
				}
			}
			rep.Counts[rl.ID] = len(mine)
		})
	}
	var slots []int32
	cfg.Prof.Do("lint.order", func() { slots = order(recs) })
	cfg.Prof.Do("lint.render", func() {
		rep.Diags = place(recs, slots, func(ri uint8, slots []int32, out []Diagnostic) {
			rl := &registry[ri]
			rl.render(in, Diagnostic{Rule: rl.ID, Name: rl.Name, Severity: sev[ri]}, recs, slots, out)
		})
	})
	return rep, nil
}

// record is one finding as a rule reports it: where, which rule, the
// IDs the rule renders it from, and a tie key that orders the rule's
// findings at one position as their (Subject, Message) would. A rule
// without a tie key leaves it zero, and strings decide its ties.
type record struct {
	line, col int32
	rule      uint8 // index into registry
	flag      uint8 // the rule's own
	ids       [3]int32
	tie       [3]int32
}

// at starts a record at pos with the given IDs.
func at(pos token.Pos, ids ...int) record {
	r := record{line: int32(pos.Line), col: int32(pos.Col)}
	for i, id := range ids {
		r.ids[i] = int32(id)
	}
	return r
}

// order returns the records' indices in the engine's total order:
// (line, col, rule, tie key), then emission order. It is a stable
// counting sort per key, least significant first, in O(F + lines + V)
// for F records and V variables: no two records are compared. The rule
// key is the rule's index in registry, which is rule-ID order
// (TestRegistryIsInIDOrder).
func order(recs []record) []int32 {
	if len(recs) == 0 {
		return nil
	}
	slots := make([]int32, len(recs))
	for i := range slots {
		slots[i] = int32(i)
	}
	spare := make([]int32, len(recs))
	digit := make([]int32, len(recs))
	var count []int32
	// pass stably sorts slots by key; keys all equal leave them be.
	pass := func(key func(r *record) int32) {
		lowest, highest := key(&recs[0]), key(&recs[0])
		for i := range recs {
			d := key(&recs[i])
			digit[i] = d
			lowest, highest = min(lowest, d), max(highest, d)
		}
		if lowest == highest {
			return
		}
		count = slices.Grow(count[:0], int(highest-lowest)+1)[:int(highest-lowest)+1]
		clear(count)
		for _, d := range digit {
			count[d-lowest]++
		}
		sum := int32(0)
		for d, c := range count {
			count[d] = sum
			sum += c
		}
		for _, i := range slots {
			d := digit[i] - lowest
			spare[count[d]] = i
			count[d]++
		}
		slots, spare = spare, slots
	}
	for k := len(record{}.tie) - 1; k >= 0; k-- {
		pass(func(r *record) int32 { return r.tie[k] })
	}
	pass(func(r *record) int32 { return int32(r.rule) })
	pass(func(r *record) int32 { return r.col })
	pass(func(r *record) int32 { return r.line })
	return slots
}

// place writes the diagnostics of recs in slot order into a slice of
// the exact length, each once; nil when there are none. draw renders
// one run of adjacent slots holding records of one rule. Where every
// integer key of adjacent records ties, their (Subject, Message)
// decide, and emission order after that: at zero positions, at
// positions that collide across the files of one Go package, and where
// the names void a tie key.
func place(recs []record, slots []int32, draw func(rule uint8, slots []int32, out []Diagnostic)) []Diagnostic {
	if len(slots) == 0 {
		return nil
	}
	out := make([]Diagnostic, len(slots))
	for lo := 0; lo < len(slots); {
		ri := recs[slots[lo]].rule
		hi := lo + 1
		for hi < len(slots) && recs[slots[hi]].rule == ri {
			hi++
		}
		draw(ri, slots[lo:hi], out[lo:hi])
		lo = hi
	}
	for lo := 0; lo < len(slots); {
		a := &recs[slots[lo]]
		hi := lo + 1
		for hi < len(slots) {
			b := &recs[slots[hi]]
			if a.line != b.line || a.col != b.col || a.rule != b.rule || a.tie != b.tie {
				break
			}
			hi++
		}
		if hi-lo > 1 {
			slices.SortStableFunc(out[lo:hi], func(x, y Diagnostic) int {
				if c := strings.Compare(x.Subject, y.Subject); c != 0 {
					return c
				}
				return strings.Compare(x.Message, y.Message)
			})
		}
		lo = hi
	}
	return out
}
