// Incremental: maintain an analysis across edits instead of re-running
// it — the programming-environment scenario Cooper & Kennedy built the
// linear-time framework for. sideeffect.NewSession holds a program
// open: each Edit replaces the program text, and the session decides
// whether the change was additive (the new local effects are
// propagated through RMOD and GMOD/GUSE as deltas) or structural (full
// reanalysis) — either way the summaries match a fresh analysis.
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
	// A session holds the program open; Edit reports how each new text
	// was absorbed.
	sess, err := sideeffect.NewSession(src, sideeffect.Options{})
	if err != nil {
		log.Fatal(err)
	}
	show(sess.Analysis(), "initial analysis")

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
