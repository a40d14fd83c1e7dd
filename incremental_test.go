package sideeffect

import (
	"math/rand"
	"strings"
	"testing"

	"sideeffect/internal/ir"
	"sideeffect/internal/report"
	"sideeffect/internal/workload"
)

// incrSrc has a call chain and a nested procedure, enough structure
// for every incremental path to be exercised by name.
const incrSrc = `
program incr;
global g, h;

proc leaf(ref x)
begin
  x := 1
end;

proc mid(ref y)
begin
  call leaf(y)
end;

begin
  call mid(g)
end.
`

func TestSessionAdditiveAndFullEdits(t *testing.T) {
	s, err := NewSession(incrSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Additive: a new assignment in leaf only adds local facts.
	add := strings.Replace(incrSrc, "x := 1", "x := 1; h := g", 1)
	mode, err := s.Edit(add)
	if err != nil {
		t.Fatal(err)
	}
	if mode != EditIncremental {
		t.Errorf("additive edit took mode %v", mode)
	}
	fresh, err := Analyze(add)
	if err != nil {
		t.Fatal(err)
	}
	if s.Analysis().Report() != fresh.Report() {
		t.Error("incremental session report differs from fresh analysis")
	}
	// Non-additive: a new call site forces full reanalysis.
	full := strings.Replace(add, "call mid(g)", "call mid(g); call leaf(h)", 1)
	mode, err = s.Edit(full)
	if err != nil {
		t.Fatal(err)
	}
	if mode != EditFull {
		t.Errorf("structural edit took mode %v", mode)
	}
	fresh, err = Analyze(full)
	if err != nil {
		t.Fatal(err)
	}
	if s.Analysis().Report() != fresh.Report() {
		t.Error("full-reanalysis session report differs from fresh analysis")
	}
	if s.Source() != full {
		t.Error("session source not updated")
	}
	// A bad edit leaves the session untouched.
	if _, err := s.Edit("program broken;"); err == nil {
		t.Fatal("syntax error accepted")
	}
	if s.Source() != full || s.Analysis().Report() != fresh.Report() {
		t.Error("failed edit changed session state")
	}
}

// TestSessionAdditiveEditReusesAliases: an additive edit leaves
// ALIAS(p) as it was, so the next analysis re-points the current alias
// solution at the new program and shares its pairs instead of
// recomputing them.
func TestSessionAdditiveEditReusesAliases(t *testing.T) {
	s, err := NewSession(incrSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	prev := s.Analysis()
	if mode, err := s.Edit(strings.Replace(incrSrc, "x := 1", "x := 1; h := g", 1)); err != nil || mode != EditIncremental {
		t.Fatalf("additive edit: mode %v, err %v", mode, err)
	}
	next := s.Analysis()
	if next.Prog == prev.Prog || next.Aliases.Prog != next.Prog {
		t.Error("the alias solution is not re-pointed at the new program")
	}
	shared := 0
	for _, p := range next.Prog.Procs {
		got, was := next.Aliases.Pairs(p), prev.Aliases.Pairs(prev.Prog.Procs[p.ID])
		if len(got) != len(was) {
			t.Fatalf("ALIAS(%s): %d pairs, %d before the edit", p.Name, len(got), len(was))
		}
		if len(got) > 0 {
			if &got[0] != &was[0] {
				t.Errorf("ALIAS(%s) was recomputed, not shared", p.Name)
			}
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("the program has no alias pairs to share")
	}
}

// TestSessionIncrementalEditProfiled: an incremental edit records its
// own work — the structure rebuild and each problem's update — in the
// profile it keeps from the analysis it replaces.
func TestSessionIncrementalEditProfiled(t *testing.T) {
	s, err := NewSession(incrSrc, Options{Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	prev := s.Analysis().Stages
	if mode, err := s.Edit(strings.Replace(incrSrc, "x := 1", "x := 1; h := g", 1)); err != nil || mode != EditIncremental {
		t.Fatalf("additive edit: mode %v, err %v", mode, err)
	}
	if s.Analysis().Stages != prev {
		t.Fatal("the incremental edit did not keep the session's profile")
	}
	count := map[string]int64{}
	for _, st := range prev.Snapshot() {
		count[st.Name] = st.Count
	}
	for name, want := range map[string]int64{"structure": 2, "mod.update": 1, "use.update": 1, "factor.mod": 2} {
		if count[name] != want {
			t.Errorf("stage %s ran %d times, want %d", name, count[name], want)
		}
	}
}

// scalarVisiblePairs enumerates the (procedure, variable) pairs whose
// addition as a local fact keeps an edit additive.
func scalarVisiblePairs(prog *ir.Program) [][2]int {
	var out [][2]int
	for _, p := range prog.Procs {
		for _, v := range prog.Vars {
			if p.Visible(v) && v.Rank() == 0 {
				out = append(out, [2]int{p.ID, v.ID})
			}
		}
	}
	return out
}

// TestSessionDifferentialRandomEdits is the acceptance differential:
// random additive edit sequences, of one fact or of several MOD and USE
// facts at once, applied through a Session must yield byte-identical
// reports (text and JSON) to a fresh Analyze of the edited source,
// under both the sequential and the parallel schedule. Every edit,
// incremental or full, must leave the report of the analysis it
// replaced unchanged.
func TestSessionDifferentialRandomEdits(t *testing.T) {
	seeds := int64(8)
	steps := 8
	if testing.Short() {
		seeds, steps = 3, 4
	}
	for seed := int64(0); seed < seeds; seed++ {
		cfg := workload.DefaultConfig(20, seed)
		if seed%2 == 1 {
			cfg.MaxDepth = 3
			cfg.NestFraction = 0.5
		}
		model := workload.Random(cfg).Prune()
		src := workload.Emit(model)
		sessions := map[string]*Session{}
		for name, opts := range map[string]Options{
			"sequential": {Workers: 1},
			"parallel":   {Workers: 4},
		} {
			s, err := NewSession(src, opts)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			sessions[name] = s
		}
		pairs := scalarVisiblePairs(model)
		r := rand.New(rand.NewSource(seed*17 + 1))
		for step := 0; step < steps; step++ {
			// Every other edit adds several facts at once, MOD and USE
			// mixed.
			facts := 1
			if step%2 == 1 {
				facts = 2 + r.Intn(3)
			}
			for k := 0; k < facts; k++ {
				pick := pairs[r.Intn(len(pairs))]
				p, v := model.Procs[pick[0]], model.Vars[pick[1]]
				if r.Intn(2) == 0 {
					p.IMOD.Add(v.ID)
				} else {
					p.IUSE.Add(v.ID)
				}
			}
			newSrc := workload.Emit(model)
			fresh, err := Analyze(newSrc)
			if err != nil {
				t.Fatalf("seed %d step %d: fresh analyze: %v", seed, step, err)
			}
			wantText := fresh.Report()
			wantJSON, err := report.JSON(fresh.Mod, fresh.Use, fresh.Aliases, fresh.SecMod)
			if err != nil {
				t.Fatal(err)
			}
			for name, s := range sessions {
				prev, prevReport := s.Analysis(), s.Analysis().Report()
				mode, err := s.Edit(newSrc)
				if err != nil {
					t.Fatalf("seed %d step %d %s: %v", seed, step, name, err)
				}
				if mode != EditIncremental {
					t.Fatalf("seed %d step %d %s: additive edit took mode %v", seed, step, name, mode)
				}
				if prev.Report() != prevReport {
					t.Fatalf("seed %d step %d %s: incremental edit wrote the analysis it replaced", seed, step, name)
				}
				a := s.Analysis()
				if got := a.Report(); got != wantText {
					t.Fatalf("seed %d step %d %s: session text report diverged from fresh analysis", seed, step, name)
				}
				got, err := report.JSON(a.Mod, a.Use, a.Aliases, a.SecMod)
				if err != nil {
					t.Fatal(err)
				}
				if got != wantJSON {
					t.Fatalf("seed %d step %d %s: session JSON report diverged from fresh analysis", seed, step, name)
				}
			}
		}
		// Replacing the program wholesale must fall back to full
		// reanalysis and still match.
		other := workload.Emit(workload.Random(workload.DefaultConfig(12, seed+1000)).Prune())
		fresh, err := Analyze(other)
		if err != nil {
			t.Fatal(err)
		}
		for name, s := range sessions {
			prev, prevReport := s.Analysis(), s.Analysis().Report()
			mode, err := s.Edit(other)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, err)
			}
			if mode != EditFull {
				t.Errorf("seed %d %s: program replacement took mode %v", seed, name, mode)
			}
			if prev.Report() != prevReport {
				t.Errorf("seed %d %s: full edit wrote the analysis it replaced", seed, name)
			}
			if s.Analysis().Report() != fresh.Report() {
				t.Errorf("seed %d %s: post-replacement report diverged", seed, name)
			}
		}
	}
}
