package main

import (
	"math"
	"testing"
)

// TestWorkloadsTiny runs every workload, untraced and traced, at tiny
// sizes, and checks that each emits every metric BENCHMARK.json names,
// finite and with its unit, and that no output check failed.
func TestWorkloadsTiny(t *testing.T) {
	bf, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	units := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[d.name] = d.unit
	}
	for _, m := range bf.EndToEnd {
		if units[m.Name] != m.Unit {
			t.Errorf("end-to-end metric %s: BENCHMARK.json unit %q, benchmark unit %q", m.Name, m.Unit, units[m.Name])
		}
	}
	for _, m := range bf.PerLayer {
		if units[m.Name] != m.Unit {
			t.Errorf("per-layer metric %s: BENCHMARK.json unit %q, benchmark unit %q", m.Name, m.Unit, units[m.Name])
		}
	}
	for _, w := range bf.Workloads {
		def, err := lookup(w.Name)
		if err != nil {
			t.Error(err)
			continue
		}
		for _, traced := range []bool{false, true} {
			o, err := runWorkload(def, tinySizes, 1, 0.2, traced)
			if err != nil {
				t.Errorf("%s (traced %v): %v", w.Name, traced, err)
				continue
			}
			if o.failed != 0 {
				t.Errorf("%s (traced %v): error_rate %d/%d", w.Name, traced, o.failed, o.attempted)
			}
			vals, names := o.e2e, []string{}
			for _, m := range bf.EndToEnd {
				names = append(names, m.Name)
			}
			if traced {
				vals, names = o.layer, nil
				for _, m := range bf.PerLayer {
					names = append(names, m.Name)
				}
			}
			for _, name := range names {
				v, ok := vals[name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s (traced %v): metric %s = %v (emitted %v)", w.Name, traced, name, v, ok)
				}
			}
		}
	}
}

// TestQuartiles pins the quartiles to Python's
// statistics.quantiles(xs, n=4), which the acceptance check uses.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{4, 1}, 0.25, 2.5, 4.75},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}
