package sideeffect

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
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
	for i, r := range AnalyzeAllContext(context.Background(), srcs, Options{Workers: -3}) {
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

// TestBatchEntryPointsKeepOptions: every entry point that takes
// Options, the batch ones and the panic retry (which run each program
// on one worker) included, must keep Profile (the stage table), and
// each answer must carry the same GMOD work counters as a direct
// sequential analysis of the program it analyzed.
func TestBatchEntryPointsKeepOptions(t *testing.T) {
	src := workload.Emit(workload.Random(workload.DefaultConfig(20, 7)))
	other := workload.Emit(workload.Random(workload.DefaultConfig(20, 8)))
	prog, err := sem.AnalyzeSource(src)
	if err != nil {
		t.Fatal(err)
	}
	prog = prog.Prune()
	goDir := filepath.Join("testdata", "gofront", "pure")
	goSrc, err := os.ReadFile(filepath.Join(goDir, "pure.go"))
	if err != nil {
		t.Fatal(err)
	}
	modPattern := filepath.Join("testdata", "gofront", "mod", "crosspkg", "...")
	ctx := context.Background()
	withProg := func(a *Analysis, err error) (*Analysis, *ir.Program, error) { return a, prog, err }
	goRes := func(r GoResult, err error) (*Analysis, *ir.Program, error) {
		if err != nil {
			return nil, nil, err
		}
		return r.Analysis, r.Pkg.Prog, nil
	}
	opened := func(s *Session, err error) (*Analysis, *ir.Program, error) {
		if err != nil {
			return nil, nil, err
		}
		return s.Analysis(), prog, nil
	}
	edited := func(edit func(*Session) error, o Options) (*Analysis, *ir.Program, error) {
		s, err := NewSession(other, o)
		if err == nil {
			err = edit(s)
		}
		if err != nil {
			return nil, nil, err
		}
		return s.Analysis(), prog, nil
	}
	entries := []struct {
		name string
		run  func(o Options) (*Analysis, *ir.Program, error)
	}{
		{"AnalyzeWith", func(o Options) (*Analysis, *ir.Program, error) {
			return withProg(AnalyzeWith(src, o))
		}},
		{"AnalyzeContext", func(o Options) (*Analysis, *ir.Program, error) {
			return withProg(AnalyzeContext(ctx, src, o))
		}},
		{"AnalyzeProgramWith", func(o Options) (*Analysis, *ir.Program, error) {
			return AnalyzeProgramWith(prog, o), prog, nil
		}},
		{"AnalyzeProgramContext", func(o Options) (*Analysis, *ir.Program, error) {
			return withProg(AnalyzeProgramContext(ctx, prog, o))
		}},
		{"AnalyzeAllContext", func(o Options) (*Analysis, *ir.Program, error) {
			r := AnalyzeAllContext(ctx, []string{src}, o)[0]
			return r.Analysis, prog, r.Err
		}},
		{"AnalyzeGoSource", func(o Options) (*Analysis, *ir.Program, error) {
			return goRes(AnalyzeGoSource(ctx, "pure.go", string(goSrc), o))
		}},
		{"AnalyzeGoPackages", func(o Options) (*Analysis, *ir.Program, error) {
			rs, err := AnalyzeGoPackages([]string{goDir}, o)
			if err != nil || len(rs) != 1 {
				return nil, nil, fmt.Errorf("AnalyzeGoPackages = %d results, %v", len(rs), err)
			}
			return rs[0].Analysis, rs[0].Pkg.Prog, nil
		}},
		{"AnalyzeGoModule", func(o Options) (*Analysis, *ir.Program, error) {
			return goRes(AnalyzeGoModule(ctx, []string{modPattern}, o))
		}},
		{"NewSession", func(o Options) (*Analysis, *ir.Program, error) {
			return opened(NewSession(src, o))
		}},
		{"NewSessionContext", func(o Options) (*Analysis, *ir.Program, error) {
			return opened(NewSessionContext(ctx, src, o))
		}},
		{"Session.Edit", func(o Options) (*Analysis, *ir.Program, error) {
			return edited(func(s *Session) error { _, err := s.Edit(src); return err }, o)
		}},
		{"EditContext", func(o Options) (*Analysis, *ir.Program, error) {
			return edited(func(s *Session) error { _, err := s.EditContext(ctx, src); return err }, o)
		}},
		{"retry", func(o Options) (*Analysis, *ir.Program, error) {
			// Find an injector seed whose first attempt panics and
			// whose retry succeeds, so the answer is the retry's.
			for seed := int64(0); seed < 200; seed++ {
				o.Faults = faultinject.New(faultinject.Config{
					Rate: 0.03, Seed: seed, Kinds: []faultinject.Kind{faultinject.KindPanic},
				})
				if a, err := AnalyzeProgramContext(ctx, prog, o); err == nil && a.Degraded {
					return a, prog, nil
				}
			}
			return nil, nil, errors.New("no injector seed produced a successful retry")
		}},
	}
	for _, e := range entries {
		t.Run(e.name, func(t *testing.T) {
			a, p, err := e.run(Options{Workers: 2, Profile: true})
			if err != nil {
				t.Fatal(err)
			}
			if a.Stages == nil {
				t.Error("Profile dropped: Stages is nil")
			}
			want := AnalyzeProgramWith(p, Options{Workers: 1}).GMODWork()
			if got := a.GMODWork(); got != want {
				t.Errorf("GMODWork = %+v, want %+v", got, want)
			}
		})
	}
}
