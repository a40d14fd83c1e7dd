package lint

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"sideeffect/internal/lang/token"
)

// TestRegistryInvariants pins the registry contract: IDs strictly
// ascending (append-only), names unique, docs present.
func TestRegistryInvariants(t *testing.T) {
	rules := Rules()
	if len(rules) != 7 {
		t.Fatalf("registry has %d rules, want 7", len(rules))
	}
	names := map[string]bool{}
	for i, rl := range rules {
		if i > 0 && rules[i-1].ID >= rl.ID {
			t.Errorf("IDs out of order: %s before %s", rules[i-1].ID, rl.ID)
		}
		if !strings.HasPrefix(rl.ID, "SE") {
			t.Errorf("rule ID %q lacks the SE prefix", rl.ID)
		}
		if names[rl.Name] {
			t.Errorf("duplicate rule name %q", rl.Name)
		}
		names[rl.Name] = true
		if rl.Doc == "" || rl.run == nil {
			t.Errorf("%s: missing doc or run", rl.ID)
		}
	}
}

func TestSeverity(t *testing.T) {
	for name, want := range map[string]Severity{"info": Info, "warning": Warning, "error": Error} {
		got, err := ParseSeverity(name)
		if err != nil || got != want {
			t.Errorf("ParseSeverity(%q) = %v, %v", name, got, err)
		}
		if got.String() != name {
			t.Errorf("String() round-trip: %q → %q", name, got.String())
		}
	}
	if _, err := ParseSeverity("fatal"); err == nil {
		t.Error("ParseSeverity accepted an unknown name")
	}
	b, err := json.Marshal(Warning)
	if err != nil || string(b) != `"warning"` {
		t.Errorf("MarshalJSON = %s, %v", b, err)
	}
}

func TestConfigSelection(t *testing.T) {
	// Zero config: everything on at defaults.
	sel, err := Config{}.selection()
	if err != nil {
		t.Fatal(err)
	}
	for _, rl := range Rules() {
		if sev, on := sel.level(rl); !on || sev != rl.Default {
			t.Errorf("%s: level = %v, %v under the zero config", rl.ID, sev, on)
		}
	}
	// Enable by slug narrows; Disable by ID subtracts afterwards.
	sel, err = Config{Enable: []string{"pure-procedure", "SE004"}, Disable: []string{"SE004"}}.selection()
	if err != nil {
		t.Fatal(err)
	}
	var on []string
	for _, rl := range Rules() {
		if _, ok := sel.level(rl); ok {
			on = append(on, rl.ID)
		}
	}
	if !reflect.DeepEqual(on, []string{"SE002"}) {
		t.Errorf("enabled after Enable+Disable: %v", on)
	}
	// Unknown keys fail loudly.
	for _, cfg := range []Config{
		{Enable: []string{"SE999"}},
		{Disable: []string{"bogus"}},
		{Severity: map[string]Severity{"nope": Error}},
	} {
		if _, err := cfg.selection(); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

// ruleIndex returns the registry index of a rule ID.
func ruleIndex(t testing.TB, id string) uint8 {
	for i, rl := range registry {
		if rl.ID == id {
			return uint8(i)
		}
	}
	t.Fatalf("no rule %s", id)
	return 0
}

// arrange runs the engine's ordering step on synthetic findings: ds[i]
// is the rendering of recs[i], and each record takes its position and
// rule from it.
func arrange(t testing.TB, recs []record, ds []Diagnostic) []Diagnostic {
	for i, d := range ds {
		recs[i].line, recs[i].col, recs[i].rule = int32(d.Pos.Line), int32(d.Pos.Col), ruleIndex(t, d.Rule)
	}
	return place(recs, order(recs), func(_ uint8, slots []int32, out []Diagnostic) {
		for k, i := range slots {
			out[k] = ds[i]
		}
	})
}

func TestSortDiagnostics(t *testing.T) {
	d := func(line, col int, rule, subject string) Diagnostic {
		return Diagnostic{Rule: rule, Subject: subject, Pos: token.Pos{Line: line, Col: col}}
	}
	ds := []Diagnostic{
		d(2, 1, "SE004", "g"),
		d(1, 5, "SE002", "p"),
		d(1, 5, "SE001", "x"),
		d(1, 2, "SE007", "i"),
		d(1, 5, "SE001", "a"),
	}
	var got []string
	for _, x := range arrange(t, make([]record, len(ds)), ds) {
		got = append(got, x.Rule+":"+x.Subject)
	}
	want := []string{"SE007:i", "SE001:a", "SE001:x", "SE002:p", "SE004:g"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("order = %v, want %v", got, want)
	}
}

// TestRegistryIsInIDOrder pins the rule-index key: the engine orders
// the findings at one position by their rule's index in registry where
// the reference compares rule IDs, so the two must agree. Moving an
// entry fails here.
func TestRegistryIsInIDOrder(t *testing.T) {
	if !slices.IsSortedFunc(registry[:], func(a, b Rule) int { return strings.Compare(a.ID, b.ID) }) {
		t.Fatal("registry is not in rule-ID order")
	}
	var ds []Diagnostic
	for i := len(registry) - 1; i >= 0; i-- {
		ds = append(ds, Diagnostic{Rule: registry[i].ID, Pos: token.Pos{Line: 3, Col: 4}})
	}
	got := arrange(t, make([]record, len(ds)), ds)
	if !slices.IsSortedFunc(got, func(a, b Diagnostic) int { return strings.Compare(a.Rule, b.Rule) }) {
		t.Errorf("findings at one position are not in rule-ID order: %v", got)
	}
}

// TestFindingsKeepEmissionOrder places far more findings than a run of
// any fixture, and checks that every finding comes back once, in
// emission order, in a slice of the exact length.
func TestFindingsKeepEmissionOrder(t *testing.T) {
	if arrange(t, nil, nil) != nil {
		t.Error("placing no findings is not nil")
	}
	const n = 300_000
	ds := make([]Diagnostic, n)
	for i := range ds {
		ds[i] = Diagnostic{Rule: "SE003", Pos: token.Pos{Line: i}}
	}
	got := arrange(t, make([]record, n), ds)
	if len(got) != n || cap(got) != n {
		t.Fatalf("place: len %d cap %d, want %d", len(got), cap(got), n)
	}
	for i, d := range got {
		if d.Pos.Line != i {
			t.Fatalf("finding %d has line %d: emission order lost", i, d.Pos.Line)
		}
	}
}

// TestSortDiagnosticsIsStable checks the ordering step against a
// stable sort of the findings on inputs dense with ties, where only
// Proc, which no key reads, tells tied findings apart. SE003's records
// carry a tie key that orders as their (Subject, Message) do, with
// ties of its own; the other rules' ties are left to the strings.
func TestSortDiagnosticsIsStable(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	pick := func(vals ...string) string { return vals[r.Intn(len(vals))] }
	for _, n := range []int{0, 1, 2, 7, 100, 3000} {
		ds := make([]Diagnostic, n)
		recs := make([]record, n)
		for i := range ds {
			ds[i] = Diagnostic{
				Rule: pick("SE001", "SE003", "SE005"), Subject: pick("a", "b"), Message: pick("m", "n"),
				Proc: strconv.Itoa(i), Pos: token.Pos{Line: r.Intn(4), Col: r.Intn(3)},
			}
			if ds[i].Rule == "SE003" {
				recs[i].tie = [3]int32{int32(ds[i].Subject[0]), int32(ds[i].Message[0])}
			}
		}
		want := slices.Clone(ds)
		sort.SliceStable(want, func(i, j int) bool {
			a, b := want[i], want[j]
			if a.Pos != b.Pos {
				return a.Pos.Line < b.Pos.Line || a.Pos.Line == b.Pos.Line && a.Pos.Col < b.Pos.Col
			}
			if a.Rule != b.Rule {
				return a.Rule < b.Rule
			}
			if a.Subject != b.Subject {
				return a.Subject < b.Subject
			}
			return a.Message < b.Message
		})
		if got := arrange(t, recs, ds); !slices.Equal(got, want) {
			t.Errorf("n=%d: the ordering step differs from the stable sort", n)
		}
	}
}

// TestWritersOnSyntheticReport drives the writers without an analysis:
// zero positions clamp to 1:1, and the SARIF rule index stays aligned
// with the registry.
func TestWritersOnSyntheticReport(t *testing.T) {
	rep := &Report{
		Diags: []Diagnostic{
			{Rule: "SE004", Name: "dead-global", Severity: Warning, Subject: "g", Message: "m"},
		},
		Counts: map[string]int{"SE004": 1},
	}
	files := []FileReport{{File: "synth.mpl", Report: rep}}

	text := Text(files)
	if text != "synth.mpl:1:1: warning: m [SE004]\n" {
		t.Errorf("Text = %q", text)
	}

	out, err := SARIF(files)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Runs []struct {
			Tool struct {
				Driver struct {
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				RuleIndex int    `json:"ruleIndex"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatal(err)
	}
	res := doc.Runs[0].Results[0]
	if doc.Runs[0].Tool.Driver.Rules[res.RuleIndex].ID != res.RuleID {
		t.Errorf("ruleIndex %d does not resolve to %s", res.RuleIndex, res.RuleID)
	}

	jsonOut, err := JSON(files)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jsonOut, `"findings": 1`) || !strings.Contains(jsonOut, `"line": 1`) {
		t.Errorf("JSON output: %s", jsonOut)
	}

	flat := SortedCounts(map[string]int{"SE007": 2, "SE001": 1})
	if flat[0].Rule != "SE001" || flat[1].Rule != "SE007" {
		t.Errorf("SortedCounts order: %v", flat)
	}
}
