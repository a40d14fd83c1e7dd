package sideeffect

import (
	"context"
	"runtime"
	"testing"

	"sideeffect/internal/faultinject"
	"sideeffect/internal/ir"
	"sideeffect/internal/lang/sem"
	"sideeffect/internal/workload"
)

// The satellite regression for Options normalization: workers() is the
// single place scheduling options become a concrete pool size, and no
// negative or zero value may escape it.
func TestOptionsWorkersClamp(t *testing.T) {
	maxprocs := runtime.GOMAXPROCS(0)
	cases := []struct {
		opts Options
		want int
	}{
		{Options{}, maxprocs},
		{Options{Workers: 0}, maxprocs},
		{Options{Workers: -1}, maxprocs},
		{Options{Workers: -1 << 20}, maxprocs},
		{Options{Workers: 1}, 1},
		{Options{Workers: 3}, 3},
	}
	for _, tc := range cases {
		if got := tc.opts.workers(); got != tc.want {
			t.Errorf("%+v.workers() = %d, want %d", tc.opts, got, tc.want)
		}
		if got := tc.opts.workers(); got < 1 {
			t.Errorf("%+v.workers() = %d: non-positive value escaped normalization", tc.opts, got)
		}
	}
}

// Negative worker counts must behave exactly like the default, all the
// way through the public entry points.
func TestNegativeWorkersAnalyze(t *testing.T) {
	want, err := Analyze(demoSrc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := AnalyzeWith(demoSrc, Options{Workers: -12})
	if err != nil {
		t.Fatal(err)
	}
	if got.Report() != want.Report() {
		t.Error("Workers: -12 changed the analysis report")
	}
	srcs := []string{demoSrc, demoSrc, "program bad;"}
	for i, r := range AnalyzeAll(srcs, Options{Workers: -3}) {
		if i < 2 {
			if r.Err != nil {
				t.Fatalf("entry %d: %v", i, r.Err)
			}
			if r.Analysis.Report() != want.Report() {
				t.Errorf("entry %d report differs under negative workers", i)
			}
		} else if r.Err == nil {
			t.Error("bad entry unexpectedly analyzed")
		}
	}
}

// TestBatchEntryPointsKeepOptions: the batch entry points and the panic
// retry run each program with the caller's options on one worker. They
// must not drop Profile (the stage table), and each answer must carry
// the same GMOD work counters as a direct sequential analysis.
func TestBatchEntryPointsKeepOptions(t *testing.T) {
	src := workload.Emit(workload.Random(workload.DefaultConfig(20, 7)))
	prog, err := sem.AnalyzeSource(src)
	if err != nil {
		t.Fatal(err)
	}
	prog = prog.Prune()
	ctx := context.Background()
	entries := []struct {
		name string
		run  func(t *testing.T, o Options) *Analysis
	}{
		{"AnalyzeAll", func(t *testing.T, o Options) *Analysis {
			r := AnalyzeAll([]string{src}, o)[0]
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			return r.Analysis
		}},
		{"AnalyzeAllPrograms", func(t *testing.T, o Options) *Analysis {
			return AnalyzeAllPrograms([]*ir.Program{prog}, o)[0]
		}},
		{"AnalyzeAllContext", func(t *testing.T, o Options) *Analysis {
			r := AnalyzeAllContext(ctx, []string{src}, o)[0]
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			return r.Analysis
		}},
		{"AnalyzeContextRetry", func(t *testing.T, o Options) *Analysis {
			// Find an injector seed whose first attempt panics and
			// whose retry succeeds, so the answer is the retry's.
			for seed := int64(0); seed < 200; seed++ {
				o.Faults = faultinject.New(faultinject.Config{
					Rate: 0.03, Seed: seed, Kinds: []faultinject.Kind{faultinject.KindPanic},
				})
				if a, degraded, err := AnalyzeContextRetry(ctx, src, o); err == nil && degraded {
					return a
				}
			}
			t.Fatal("no injector seed produced a successful retry")
			return nil
		}},
	}
	want, err := AnalyzeWith(src, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Run(e.name, func(t *testing.T) {
			a := e.run(t, Options{Workers: 2, Profile: true})
			if a.Stages == nil {
				t.Error("Profile dropped: Stages is nil")
			}
			if got := a.GMODWork(); got != want.GMODWork() {
				t.Errorf("GMODWork = %+v, want %+v", got, want.GMODWork())
			}
		})
	}
}
