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
	"slices"
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

// timeItWarmups is the number of calls timeIt makes to f before its
// first sample.
const timeItWarmups = 2

// timeIt returns the per-run wall time of f as the median of at least
// five samples. Each sample is the mean over a batch of runs sized to
// take about 10 ms, so a fast f is timed well above the clock's
// resolution and an f slower than that is one run per sample. Sampling
// goes on until the samples span 50 ms, so an op longer than the
// budget is still the median of five runs, not one.
func timeIt(f func()) time.Duration {
	const (
		minSamples = 5
		batchTime  = 10 * time.Millisecond
		budget     = 50 * time.Millisecond
	)
	f() // warm up (allocator, caches)
	start := time.Now()
	f() // the second of timeItWarmups, timed to size the batch
	batch := max(1, int(batchTime/max(time.Since(start), 1)))
	var samples []time.Duration
	for begin := time.Now(); len(samples) < minSamples || time.Since(begin) < budget; {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			f()
		}
		samples = append(samples, time.Since(t0)/time.Duration(batch))
	}
	slices.Sort(samples)
	return samples[len(samples)/2]
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
