// Command experiments regenerates every experiment table in
// EXPERIMENTS.md (E1–E20), reproducing the analytic claims of Cooper &
// Kennedy's PLDI 1988 paper as measurements: linear-time RMOD on the
// binding multi-graph (Figure 1), linear-time findgmod (Figure 2 /
// Theorem 2), the Figure 3 regular-section lattice, and the
// constant-factor comparison against iterative/swift-style baselines.
//
// Usage:
//
//	experiments            # run everything
//	experiments -run E4    # run one experiment
//	experiments -quick     # smaller sweeps (CI-friendly)
//	experiments -j 4       # worker-pool size for the batch experiment
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
)

type experiment struct {
	id    string
	title string
	run   func(quick bool)
}

var experiments []experiment

// jobs is the -j worker-pool size used by experiments that exercise
// the batch/parallel engine (0 = GOMAXPROCS).
var jobs int

func main() {
	var (
		runID = flag.String("run", "", "run only the experiment with this id (e.g. E4)")
		quick = flag.Bool("quick", false, "smaller parameter sweeps")
	)
	flag.IntVar(&jobs, "j", 0, "worker-pool size for batch experiments (0 = GOMAXPROCS)")
	flag.Parse()
	ran := false
	for _, e := range experiments {
		if *runID != "" && !strings.EqualFold(e.id, *runID) {
			continue
		}
		fmt.Printf("## %s — %s\n\n", e.id, e.title)
		e.run(*quick)
		fmt.Println()
		ran = true
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "experiments: no experiment %q\n", *runID)
		os.Exit(2)
	}
}

// timeIt runs f repeatedly until it has consumed a minimum budget and
// returns the per-run wall time.
func timeIt(f func()) time.Duration {
	f() // warm up (allocator, caches)
	f()
	const budget = 50 * time.Millisecond
	start := time.Now()
	runs := 0
	for time.Since(start) < budget {
		f()
		runs++
	}
	return time.Since(start) / time.Duration(runs)
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func dur(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	default:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	}
}
