package sideeffect

import (
	"context"
	"errors"
	"strings"
	"testing"

	"sideeffect/internal/batch"
	"sideeffect/internal/faultinject"
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

// TestPlainEntryPointsIgnoreFaults pins the plain family's contract
// now that it runs the context-aware pipeline: an armed injector in
// Options.Faults changes nothing for AnalyzeWith, NewSession or
// Session.Edit, while EditContext on the same session honors it.
func TestPlainEntryPointsIgnoreFaults(t *testing.T) {
	panicAll := func() *faultinject.Injector {
		return faultinject.New(faultinject.Config{
			Rate: 1, Seed: 5, Kinds: []faultinject.Kind{faultinject.KindPanic},
		})
	}
	src := chaosSrc(t, 9)
	want, err := Analyze(src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := AnalyzeWith(src, Options{Workers: 1, Faults: panicAll()})
	if err != nil {
		t.Fatal(err)
	}
	if got.Report() != want.Report() {
		t.Fatal("AnalyzeWith with an injector differs from Analyze")
	}

	s, err := NewSession(incrSrc, Options{Workers: 1, Faults: panicAll()})
	if err != nil {
		t.Fatalf("NewSession injected a fault: %v", err)
	}
	edited := strings.Replace(incrSrc, "x := 1", "x := 1; h := 2", 1)
	mode, err := s.Edit(edited)
	if err != nil || mode != EditIncremental {
		t.Fatalf("Edit with an injector = %v, %v; want an incremental edit", mode, err)
	}
	if _, err := s.EditContext(context.Background(), incrSrc); err == nil {
		t.Fatal("EditContext ignored the session's injector")
	}
}

// TestAnalyzeProgramWithRepanics pins the fail-fast contract: a panic
// inside the pipeline reaches the caller of AnalyzeProgramWith as a
// *batch.PanicError, as batch.Run re-raises it.
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
	want := AnalyzeAll(srcs, Options{Workers: 1})
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
			if r.Degraded {
				degraded++
				// The retry shares no storage with the attempt that
				// failed: heap allocation, no arena.
				if r.Analysis.Mod.Arena != nil || r.Analysis.Use.Arena != nil {
					t.Fatalf("degraded result %d is arena-backed", i)
				}
			}
			// Chaos invariant: a response that is not an error is
			// byte-identical to the faultless answer.
			if r.Analysis.Report() != want[i].Analysis.Report() {
				t.Fatalf("result %d (degraded=%v) differs from faultless analysis", i, r.Degraded)
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
	// off to the side, session untouched and NOT broken.
	cancelled, stop := context.WithCancel(context.Background())
	stop()
	other := chaosSrc(t, 201)
	if _, err := s.EditContext(cancelled, other); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled full edit: %v", err)
	}
	if s.Broken() || s.Source() != base || s.Analysis().Report() != wantReport {
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

// TestSessionEditContextPanicMidMutation is the regression test for a
// chaos-soak find: a fault point that panics on the edit's own
// goroutine (rather than inside a panic-capturing worker pool) used to
// escape EditContext mid-mutation. The serving layer's recover turned
// it into a 500, but the session was never marked broken, so later
// reads served the half-updated solution — an edit that "failed" had
// partially landed. EditContext must instead absorb the panic: either
// the full-reanalysis fallback lands the edit, or the session comes
// out broken, or the solution is exactly the pre-edit one.
func TestSessionEditContextPanicMidMutation(t *testing.T) {
	base := incrSrc
	edited := strings.Replace(incrSrc, "x := 1", "x := 1; h := 2", 1)
	s, err := NewSessionContext(context.Background(), base, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	baseReport := s.Analysis().Report()
	// Arm panic-only injection after creation so the session builds
	// cleanly; from here every fault point panics on whatever
	// goroutine reaches it.
	s.opts.Faults = faultinject.New(faultinject.Config{
		Rate: 1, Seed: 3, Kinds: []faultinject.Kind{faultinject.KindPanic},
	})
	_, err = s.EditContext(context.Background(), edited)
	switch {
	case err == nil:
		if s.Source() != edited {
			t.Fatal("edit reported success without landing")
		}
	case s.Broken():
		if !errors.Is(err, ErrSessionBroken) {
			t.Fatalf("breaking edit error %v does not wrap ErrSessionBroken", err)
		}
		if _, err := s.EditContext(context.Background(), base); !errors.Is(err, ErrSessionBroken) {
			t.Fatalf("broken session accepted an edit: %v", err)
		}
	default:
		if s.Source() != base || s.Analysis().Report() != baseReport {
			t.Fatal("failed edit left a half-mutated session readable")
		}
	}
}

func TestSessionEditContextBreaks(t *testing.T) {
	// An additive edit (same structure, one new assignment to a global
	// inside an existing procedure) under a cancelled context: the
	// incremental path mutates in place, the derived refresh hits the
	// cancelled context, and the full-reanalysis fallback fails too —
	// the session must come out broken, refusing further edits.
	base := incrSrc
	edited := strings.Replace(incrSrc, "x := 1", "x := 1; h := 2", 1)
	s, err := NewSessionContext(context.Background(), base, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	cancelled, stop := context.WithCancel(context.Background())
	stop()
	_, err = s.EditContext(cancelled, edited)
	if err == nil {
		t.Fatal("cancelled incremental edit reported success")
	}
	if !s.Broken() {
		t.Skip("edit was absorbed before mutation began; cannot force broken state here")
	}
	if !errors.Is(err, ErrSessionBroken) {
		t.Fatalf("breaking edit error %v does not wrap ErrSessionBroken", err)
	}
	if _, err := s.EditContext(context.Background(), base); !errors.Is(err, ErrSessionBroken) {
		t.Fatalf("broken session accepted an edit: %v", err)
	}
	if _, err := s.Edit(base); !errors.Is(err, ErrSessionBroken) {
		t.Fatalf("broken session accepted a legacy Edit: %v", err)
	}
}
