package sideeffect

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sideeffect/internal/batch"
	"sideeffect/internal/faultinject"
	"sideeffect/internal/lint"
	"sideeffect/internal/workload"
)

func chaosSrc(t *testing.T, seed int64) string {
	t.Helper()
	return workload.Emit(workload.Random(workload.DefaultConfig(15, seed)))
}

func TestAnalyzeContextIdentity(t *testing.T) {
	src := chaosSrc(t, 42)
	want, err := Analyze(src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := AnalyzeContext(context.Background(), src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Report() != want.Report() {
		t.Fatal("AnalyzeContext report differs from Analyze")
	}
}

func TestAnalyzeContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a, err := AnalyzeContext(ctx, chaosSrc(t, 1), Options{Workers: 1})
	if a != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled AnalyzeContext = %v, %v", a, err)
	}
}

func TestAnalyzeContextPanicBecomesError(t *testing.T) {
	inj := faultinject.New(faultinject.Config{
		Rate: 1, Seed: 7, Kinds: []faultinject.Kind{faultinject.KindPanic},
	})
	a, err := AnalyzeContext(context.Background(), chaosSrc(t, 2), Options{Workers: 1, Faults: inj})
	if a != nil || err == nil {
		t.Fatalf("faulted AnalyzeContext = %v, %v", a, err)
	}
	var pe *batch.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v does not wrap *batch.PanicError", err)
	}
}

// TestEntryPointsTotal runs every public entry point twice. With the
// zero Options each answer must match its checked-in golden byte for
// byte. With a panic-only injector at rate 1 each must return an error
// wrapping *batch.PanicError, and none may panic. Lint has no fault
// sites, so its second run lints an Analysis whose rules panic.
// AnalyzeProgramWith, which has no error result, is the exception: it
// must re-panic the *batch.PanicError (TestAnalyzeProgramWithRepanics).
func TestEntryPointsTotal(t *testing.T) {
	ctx := context.Background()
	prog, _, err := parseMiniPL(goldenSrc, nil)
	if err != nil {
		t.Fatal(err)
	}
	// An additive edit from base restores goldenSrc; a non-additive
	// one from other replaces the program.
	base := strings.Replace(goldenSrc, "; b := t", "", 1)
	other := chaosSrc(t, 9)
	goDir := filepath.Join("testdata", "gofront", "pure")
	goSrc, err := os.ReadFile(filepath.Join(goDir, "pure.go"))
	if err != nil {
		t.Fatal(err)
	}
	const (
		miniGolden = "testdata/golden/report.txt"
		lintFile   = "testdata/lint/se003_alias.mpl"
	)
	lintSrc, err := os.ReadFile(lintFile)
	if err != nil {
		t.Fatal(err)
	}
	report := func(a *Analysis, err error) (string, error) {
		if err != nil {
			return "", err
		}
		return a.Report(), nil
	}
	goReport := func(r GoResult, err error) (string, error) {
		if err != nil {
			return "", err
		}
		return r.GoReport(), nil
	}
	// edit opens a session on from without faults, arms o's injector,
	// and edits it to goldenSrc, which must take the path want names.
	edit := func(from string, want EditMode, o Options, do func(*Session) (EditMode, error)) (string, error) {
		s, err := NewSession(from, Options{})
		if err != nil {
			return "", err
		}
		s.opts = o
		mode, err := do(s)
		if err != nil {
			return "", err
		}
		if mode != want {
			return "", fmt.Errorf("edit took the %v path, want %v", mode, want)
		}
		return s.Analysis().Report(), nil
	}
	entries := []struct {
		name, golden string
		run          func(o Options) (string, error)
	}{
		{"AnalyzeWith", miniGolden, func(o Options) (string, error) {
			return report(AnalyzeWith(goldenSrc, o))
		}},
		{"AnalyzeContext", miniGolden, func(o Options) (string, error) {
			return report(AnalyzeContext(ctx, goldenSrc, o))
		}},
		{"AnalyzeProgramWith", miniGolden, func(o Options) (string, error) {
			return AnalyzeProgramWith(prog, o).Report(), nil
		}},
		{"AnalyzeProgramContext", miniGolden, func(o Options) (string, error) {
			return report(AnalyzeProgramContext(ctx, prog, o))
		}},
		{"AnalyzeAllContext", miniGolden, func(o Options) (string, error) {
			r := AnalyzeAllContext(ctx, []string{goldenSrc}, o)[0]
			return report(r.Analysis, r.Err)
		}},
		{"AnalyzeGoSource", "testdata/gofront/golden/source_pure.report.txt", func(o Options) (string, error) {
			return goReport(AnalyzeGoSource(ctx, "pure.go", string(goSrc), o))
		}},
		{"AnalyzeGoPackages", "testdata/gofront/golden/pure.report.txt", func(o Options) (string, error) {
			rs, err := AnalyzeGoPackages([]string{goDir}, o)
			if err != nil {
				return "", err
			}
			return rs[0].GoReport(), nil
		}},
		{"AnalyzeGoModule", "testdata/gofront/golden/mod_crosspkg.report.txt", func(o Options) (string, error) {
			return goReport(AnalyzeGoModule(ctx, []string{filepath.Join("testdata", "gofront", "mod", "crosspkg", "...")}, o))
		}},
		{"NewSession", miniGolden, func(o Options) (string, error) {
			s, err := NewSession(goldenSrc, o)
			if err != nil {
				return "", err
			}
			return s.Analysis().Report(), nil
		}},
		{"NewSessionContext", miniGolden, func(o Options) (string, error) {
			s, err := NewSessionContext(ctx, goldenSrc, o)
			if err != nil {
				return "", err
			}
			return s.Analysis().Report(), nil
		}},
		{"Session.Edit", miniGolden, func(o Options) (string, error) {
			return edit(base, EditIncremental, o, func(s *Session) (EditMode, error) { return s.Edit(goldenSrc) })
		}},
		{"EditContext", miniGolden, func(o Options) (string, error) {
			return edit(other, EditFull, o, func(s *Session) (EditMode, error) { return s.EditContext(ctx, goldenSrc) })
		}},
		{"Lint", "testdata/lint/se003_alias.golden.txt", func(o Options) (string, error) {
			a, err := Analyze(string(lintSrc))
			if err != nil {
				return "", err
			}
			if o.Faults != nil {
				a = &Analysis{Prog: a.Prog} // every rule dereferences the missing results
			}
			rep, err := a.Lint(lint.Config{})
			if err != nil {
				return "", err
			}
			return lint.Text([]lint.FileReport{{File: lintFile, Report: rep}}), nil
		}},
	}
	call := func(run func(Options) (string, error), o Options) (got string, err error, rec any) {
		defer func() { rec = recover() }()
		got, err = run(o)
		return got, err, nil
	}
	for _, e := range entries {
		t.Run(e.name, func(t *testing.T) {
			got, err, rec := call(e.run, Options{})
			if err != nil || rec != nil {
				t.Fatalf("faultless run: err %v, panic %v", err, rec)
			}
			checkGolden(t, e.golden, got)

			_, err, rec = call(e.run, Options{Faults: faultinject.New(faultinject.Config{
				Rate: 1, Seed: 5, Kinds: []faultinject.Kind{faultinject.KindPanic},
			})})
			if e.name == "AnalyzeProgramWith" {
				if _, ok := rec.(*batch.PanicError); !ok {
					t.Fatalf("AnalyzeProgramWith recovered %v, want a re-panicked *batch.PanicError", rec)
				}
				return
			}
			if rec != nil {
				t.Fatalf("panicked: %v", rec)
			}
			var pe *batch.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("error %v does not wrap *batch.PanicError", err)
			}
		})
	}
}

// TestOneRetryBothLanguages: for a MiniPL and a Go source, and for an
// additive session edit, an injector seed whose first attempt panics
// yields Analysis.Degraded and a report byte-identical to the faultless
// one. The edit's retry starts from nothing: it reports EditFull and
// equals a fresh Analyze of the edited source.
func TestOneRetryBothLanguages(t *testing.T) {
	ctx := context.Background()
	goSrc, err := os.ReadFile(filepath.Join("testdata", "gofront", "pure", "pure.go"))
	if err != nil {
		t.Fatal(err)
	}
	src := chaosSrc(t, 21)
	edited := strings.Replace(incrSrc, "x := 1", "x := 1; h := g", 1)
	fresh, err := Analyze(edited)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		run  func(t *testing.T, o Options) (*Analysis, string, error)
	}{
		{"minipl", func(t *testing.T, o Options) (*Analysis, string, error) {
			a, err := AnalyzeContext(ctx, src, o)
			if err != nil {
				return nil, "", err
			}
			return a, a.Report(), nil
		}},
		{"go", func(t *testing.T, o Options) (*Analysis, string, error) {
			r, err := AnalyzeGoSource(ctx, "pure.go", string(goSrc), o)
			if err != nil {
				return nil, "", err
			}
			return r.Analysis, r.GoReport(), nil
		}},
		{"session edit", func(t *testing.T, o Options) (*Analysis, string, error) {
			s, err := NewSessionContext(ctx, incrSrc, Options{})
			if err != nil {
				t.Fatal(err)
			}
			s.opts = o
			mode, err := s.EditContext(ctx, edited)
			if err != nil {
				return nil, "", err
			}
			a := s.Analysis()
			if a.Degraded && (mode != EditFull || a.Report() != fresh.Report()) {
				t.Fatalf("retried edit: mode %v, equals a fresh Analyze: %v", mode, a.Report() == fresh.Report())
			}
			return a, a.Report(), nil
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, want, err := c.run(t, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(0); seed < 200; seed++ {
				a, got, err := c.run(t, Options{Workers: 2, Faults: faultinject.New(faultinject.Config{
					Rate: 0.05, Seed: seed, Kinds: []faultinject.Kind{faultinject.KindPanic},
				})})
				if err != nil || !a.Degraded {
					continue
				}
				if got != want {
					t.Fatalf("seed %d: the retry's report differs from the faultless one", seed)
				}
				return
			}
			t.Fatal("no injector seed produced a successful retry")
		})
	}
}

// TestAnalyzeProgramWithRepanics pins the fail-fast contract of the one
// entry point without an error result: a panic inside the pipeline
// (here on both attempts) reaches the caller of AnalyzeProgramWith as
// the *batch.PanicError the pipeline captured.
func TestAnalyzeProgramWithRepanics(t *testing.T) {
	defer func() {
		if _, ok := recover().(*batch.PanicError); !ok {
			t.Fatal("AnalyzeProgramWith did not re-panic a *batch.PanicError")
		}
	}()
	AnalyzeProgramWith(nil, Options{Workers: 1})
}

// TestAnalyzeContextPanicMidPipeline drives a panic-only injector at a
// rate low enough that most faults land partway through the pipeline:
// every failure must be a *batch.PanicError, and every analysis that
// survives must be byte-identical to the faultless one.
func TestAnalyzeContextPanicMidPipeline(t *testing.T) {
	inj := faultinject.New(faultinject.Config{
		Rate: 0.08, Seed: 3, Kinds: []faultinject.Kind{faultinject.KindPanic},
	})
	var failures int
	for seed := int64(0); seed < 30; seed++ {
		src := chaosSrc(t, 50+seed)
		a, err := AnalyzeContext(context.Background(), src, Options{Workers: 1, Faults: inj})
		if err != nil {
			var pe *batch.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("seed %d: error %v does not wrap *batch.PanicError", seed, err)
			}
			failures++
			continue
		}
		want, err := Analyze(src)
		if err != nil {
			t.Fatal(err)
		}
		if a.Report() != want.Report() {
			t.Fatalf("seed %d: surviving analysis differs from the faultless one", seed)
		}
	}
	if failures == 0 {
		t.Fatal("fault rate 0.08 over 30 analyses produced no failures; injector dead?")
	}
}

func TestAnalyzeAllContextDegradedRetry(t *testing.T) {
	srcs := make([]string, 60)
	for i := range srcs {
		srcs[i] = chaosSrc(t, 100+int64(i))
	}
	want := AnalyzeAllContext(context.Background(), srcs, Options{Workers: 1})
	inj := faultinject.New(faultinject.Config{
		Rate: 0.05, Seed: 11, Kinds: []faultinject.Kind{faultinject.KindPanic},
	})
	got := AnalyzeAllContext(context.Background(), srcs, Options{Workers: 1, Faults: inj})
	if len(got) != len(srcs) {
		t.Fatalf("got %d results for %d inputs", len(got), len(srcs))
	}
	var degraded, failed int
	for i, r := range got {
		switch {
		case r.Analysis == nil && r.Err == nil:
			t.Fatalf("result %d has neither analysis nor error", i)
		case r.Err != nil:
			failed++
		default:
			if r.Analysis.Degraded {
				degraded++
			}
			// Chaos invariant: a response that is not an error is
			// byte-identical to the faultless answer.
			if r.Analysis.Report() != want[i].Analysis.Report() {
				t.Fatalf("result %d (degraded=%v) differs from faultless analysis", i, r.Analysis.Degraded)
			}
		}
	}
	if degraded == 0 {
		t.Fatal("no degraded retry succeeded; expected some at rate 0.05 over 60 programs")
	}
	t.Logf("degraded=%d failed=%d of %d", degraded, failed, len(srcs))
}

func TestAnalyzeAllContextCancelStampsSkipped(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	srcs := []string{chaosSrc(t, 1), chaosSrc(t, 2), chaosSrc(t, 3)}
	out := AnalyzeAllContext(ctx, srcs, Options{Workers: 1})
	for i, r := range out {
		if r.Analysis != nil || !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("slot %d after pre-cancel = %+v", i, r)
		}
	}
}

func TestSessionEditContextTransactional(t *testing.T) {
	base := chaosSrc(t, 200)
	s, err := NewSessionContext(context.Background(), base, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantReport := s.Analysis().Report()

	// Parse error: session untouched.
	if _, err := s.EditContext(context.Background(), "begin bogus"); err == nil {
		t.Fatal("parse error not reported")
	}
	if s.Source() != base || s.Analysis().Report() != wantReport {
		t.Fatal("failed parse mutated the session")
	}

	// Non-additive edit under a cancelled context: the full path fails
	// off to the side, session untouched.
	cancelled, stop := context.WithCancel(context.Background())
	stop()
	other := chaosSrc(t, 201)
	if _, err := s.EditContext(cancelled, other); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled full edit: %v", err)
	}
	if s.Source() != base || s.Analysis().Report() != wantReport {
		t.Fatal("cancelled full edit mutated the session")
	}

	// A healthy edit still works after the failures above.
	if _, err := s.EditContext(context.Background(), other); err != nil {
		t.Fatal(err)
	}
	if s.Source() != other {
		t.Fatal("healthy edit did not land")
	}
}

// TestSessionEditContextPanicMidMutation: with every fault point
// panicking, those reached on the edit's own goroutine (rather than
// inside a panic-capturing worker pool) included, an edit must fail
// with a captured panic and leave the session exactly as it was — same
// analysis, same source, same report — and the same edit must land
// incrementally once the faults are off.
func TestSessionEditContextPanicMidMutation(t *testing.T) {
	base := incrSrc
	edited := strings.Replace(incrSrc, "x := 1", "x := 1; h := 2", 1)
	s, err := NewSessionContext(context.Background(), base, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := s.Analysis()
	baseReport := before.Report()
	// Arm panic-only injection after creation so the session builds
	// cleanly; from here every fault point panics on whatever
	// goroutine reaches it.
	s.opts.Faults = faultinject.New(faultinject.Config{
		Rate: 1, Seed: 3, Kinds: []faultinject.Kind{faultinject.KindPanic},
	})
	_, err = s.EditContext(context.Background(), edited)
	var pe *batch.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("edit with every fault point panicking: err %v, want a captured panic", err)
	}
	if s.Analysis() != before || s.Source() != base || before.Report() != baseReport {
		t.Fatal("failed edit changed the session")
	}
	s.opts.Faults = nil
	mode, err := s.EditContext(context.Background(), edited)
	if err != nil || mode != EditIncremental {
		t.Fatalf("edit after the faults: mode %v, err %v", mode, err)
	}
	if before.Report() != baseReport {
		t.Fatal("the edit wrote the analysis it replaced")
	}
	fresh, err := Analyze(edited)
	if err != nil {
		t.Fatal(err)
	}
	if s.Analysis().Report() != fresh.Report() {
		t.Fatal("edit after the faults differs from a fresh analysis")
	}
}

// TestSessionEditOneFault: an edit is an analysis like any other. Under
// an injector that fails every fault point with an error, an additive
// edit fails at the pipeline's first fault point, with the pipeline's
// error, and runs no second analysis; the session is left as it was.
func TestSessionEditOneFault(t *testing.T) {
	s, err := NewSessionContext(context.Background(), incrSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := s.Analysis()
	inj := faultinject.New(faultinject.Config{
		Rate: 1, Seed: 1, Kinds: []faultinject.Kind{faultinject.KindError},
	})
	s.opts.Faults = inj
	_, err = s.EditContext(context.Background(), strings.Replace(incrSrc, "x := 1", "x := 1; h := g", 1))
	if got := inj.Counts(); len(got) != 1 || got["sideeffect.analyze/error"] != 1 {
		t.Fatalf("faults fired: %v, want sideeffect.analyze/error=1 only", got)
	}
	var ie *faultinject.InjectedError
	if !errors.As(err, &ie) || !strings.HasPrefix(err.Error(), "sideeffect: analysis failed: ") {
		t.Fatalf("edit under a rate-1 error injector: err %v, want the pipeline's injected error", err)
	}
	if s.Analysis() != before || s.Source() != incrSrc {
		t.Fatal("failed edit changed the session")
	}
}

// TestSessionEditCancelledKeepsAnalysis: an additive edit whose
// context is already done (the client has gone) fails with the
// context's error and leaves the session exactly as it was, and the
// session keeps taking edits: the next additive edit under a live
// context lands incrementally and equals a fresh Analyze.
func TestSessionEditCancelledKeepsAnalysis(t *testing.T) {
	base := incrSrc
	edited := strings.Replace(incrSrc, "x := 1", "x := 1; h := 2", 1)
	fresh, err := Analyze(edited)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			s, err := NewSessionContext(context.Background(), base, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			before := s.Analysis()
			baseReport := before.Report()
			cancelled, stop := context.WithCancel(context.Background())
			stop()
			if _, err := s.EditContext(cancelled, edited); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled additive edit: err %v, want context.Canceled", err)
			}
			if s.Analysis() != before || s.Source() != base || s.Analysis().Report() != baseReport {
				t.Fatal("cancelled additive edit changed the session")
			}
			mode, err := s.EditContext(context.Background(), edited)
			if err != nil || mode != EditIncremental {
				t.Fatalf("edit after the cancelled one: mode %v, err %v", mode, err)
			}
			if s.Source() != edited || s.Analysis().Report() != fresh.Report() {
				t.Fatal("edit after the cancelled one differs from a fresh analysis")
			}
			if before.Report() != baseReport {
				t.Fatal("the edit wrote the analysis it replaced")
			}
		})
	}
}
