package sideeffect

import (
	"runtime"
	"testing"
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
