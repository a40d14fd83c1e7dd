package core

import (
	"context"
	"errors"
	"testing"

	"sideeffect/internal/faultinject"
	"sideeffect/internal/workload"
)

// TestAnalyzeCtxCancel proves the cancellation contract: a cancelled
// analysis returns no Result and reports ctx.Err().
func TestAnalyzeCtxCancel(t *testing.T) {
	prog := workload.Random(workload.DefaultConfig(20, 1))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := AnalyzeCtx(ctx, prog, Mod, Options{})
	if r != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled AnalyzeCtx = %v, %v", r, err)
	}
}

// TestAnalyzeCtxInjectedErrorAborts drives an error-only injector at
// rate 1: the very first stage boundary must abort cleanly with the
// injected error.
func TestAnalyzeCtxInjectedErrorAborts(t *testing.T) {
	prog := workload.Random(workload.DefaultConfig(10, 2))
	inj := faultinject.New(faultinject.Config{Rate: 1, Seed: 1, Kinds: []faultinject.Kind{faultinject.KindError}})
	r, err := AnalyzeCtx(context.Background(), prog, Use, Options{Faults: inj})
	if r != nil || err == nil {
		t.Fatalf("injected error not reported: %v, %v", r, err)
	}
	var ie *faultinject.InjectedError
	if !errors.As(err, &ie) {
		t.Fatalf("error %v does not unwrap to InjectedError", err)
	}
}

// TestAnalyzeCtxPanicPropagates: an injected panic reaches the caller
// unchanged, for the public layer to turn into an error.
func TestAnalyzeCtxPanicPropagates(t *testing.T) {
	prog := workload.Random(workload.DefaultConfig(10, 3))
	inj := faultinject.New(faultinject.Config{Rate: 1, Seed: 1, Kinds: []faultinject.Kind{faultinject.KindPanic}})
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		_, _ = AnalyzeCtx(context.Background(), prog, Mod, Options{Faults: inj})
	}()
	if recovered == nil {
		t.Fatal("injected panic did not propagate")
	}
	if _, ok := recovered.(*faultinject.InjectedPanic); !ok {
		t.Fatalf("recovered %T, want *faultinject.InjectedPanic", recovered)
	}
}

// TestAnalyzeCtxIdentity: the guarded pipeline with a healthy context
// and no injector must produce results byte-identical to Analyze.
func TestAnalyzeCtxIdentity(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		prog := workload.Random(workload.DefaultConfig(15, 100+seed))
		want := Analyze(prog, Mod, Options{})
		got, err := AnalyzeCtx(context.Background(), prog, Mod, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, p := range prog.Procs {
			if !got.GMOD[p.ID].Equal(want.GMOD[p.ID]) {
				t.Fatalf("seed %d: GMOD(%s) differs under AnalyzeCtx", seed, p.Name)
			}
		}
	}
}
