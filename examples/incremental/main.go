// Incremental: maintain an analysis across edits instead of re-running
// it — the programming-environment scenario Cooper & Kennedy built the
// linear-time framework for. Two layers are shown:
//
//   - sideeffect.NewIncremental / Incremental.AddLocalEffect record a new
//     local effect ("leaf now modifies h") and propagate exactly the
//     delta through RMOD and GMOD/GUSE;
//   - sideeffect.NewSession works at the source level: each Edit
//     replaces the program text, and the session decides whether the
//     change was additive (incremental update) or structural (full
//     reanalysis) — either way the summaries match a fresh analysis.
//
// Run with:
//
//	go run ./examples/incremental
package main

import (
	"fmt"
	"log"
	"strings"

	"sideeffect"
)

const src = `
program editor;

global g, h;

{ leaf writes through its reference parameter. }
proc leaf(ref x)
begin
  x := 1
end;

{ mid forwards its parameter to leaf. }
proc mid(ref y)
begin
  call leaf(y)
end;

begin
  call mid(g)
end.
`

func main() {
	a, err := sideeffect.Analyze(src)
	if err != nil {
		log.Fatal(err)
	}
	show(a, "initial analysis")

	// Layer 1: effect-level updates. Recompiling leaf revealed a new
	// statement "h := 2"; instead of re-analyzing the program, record
	// the new local effect and let the engine propagate it. The return
	// value names every procedure whose summary changed — here the
	// whole call chain, since h escapes upward.
	inc := sideeffect.NewIncremental(a)
	changed, err := inc.AddLocalEffect("leaf", "h", sideeffect.ModEffect)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after AddLocalEffect(leaf, h, mod): changed = %v\n", changed)
	show(a, "maintained analysis")

	// Layer 2: source-level sessions. A session holds the program open;
	// Edit reports how each new text was absorbed.
	sess, err := sideeffect.NewSession(src, sideeffect.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// An additive edit — a new assignment, nothing removed or rebound —
	// rides the incremental engine.
	edited := strings.Replace(src, "x := 1", "x := 1; h := 2", 1)
	mode, err := sess.Edit(edited)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("additive edit absorbed via: %s\n", mode)

	// A structural edit — a brand-new call site — falls back to full
	// reanalysis, transparently.
	restructured := strings.Replace(edited, "call mid(g)", "call mid(g); call leaf(h)", 1)
	mode, err = sess.Edit(restructured)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("structural edit absorbed via: %s\n", mode)
	show(sess.Analysis(), "session after both edits")
}

func show(a *sideeffect.Analysis, title string) {
	fmt.Printf("--- %s ---\n", title)
	for _, p := range []string{"leaf", "mid", "$main"} {
		mod, err := a.MOD(p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  GMOD(%-5s) = %v\n", p, mod)
	}
}
