package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {90, 4.6}, {100, 5},
	} {
		if got := percentile(xs, c.q); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single value: %v", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("empty input should give NaN")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4), the
// method the benchmark's steadiness is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{3, 1}, 0.5, 3.5}, // tiny samples extrapolate, as Python does
		{[]float64{1, 2, 4}, 1, 4},
	} {
		q1, q3, err := quartiles(c.xs)
		if err != nil || !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v", c.xs, q1, q3, err, c.q1, c.q3)
		}
	}
	if _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("one value accepted")
	}
	s, err := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if err != nil || !near(s, 5.5/5.5) {
		t.Errorf("spread = %v, %v; want 1", s, err)
	}
}

func TestValidName(t *testing.T) {
	for _, ok := range []string{"setup_s", "phy.tx_us", "a", "9lives", "x-y.z_1", "link_frames"} {
		if !validName(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	long := make([]byte, 65)
	for i := range long {
		long[i] = 'a'
	}
	for _, bad := range []string{"", "_x", ".x", "-x", "a b", "a/b", "µs", string(long)} {
		if validName(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
	for _, ok := range []string{"ms", "1/s", "%", "air_s/s", "count"} {
		if !validUnit(ok) {
			t.Errorf("unit %q rejected", ok)
		}
	}
	for _, bad := range []string{"", "µs", "a b", "abcdefghijklmnopq"} {
		if validUnit(bad) {
			t.Errorf("unit %q accepted", bad)
		}
	}
}

func TestLayerSumRatio(t *testing.T) {
	if got := layerSumRatio(270, 300); !near(got, 0.9) {
		t.Errorf("layerSumRatio = %v, want 0.9", got)
	}
	if !math.IsNaN(layerSumRatio(1, 0)) {
		t.Error("zero frame time should give NaN")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []traceSpan{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 50},  // overlaps a: union 10..50
		{Name: "c", Parent: 0, Start: 90, End: 120}, // only 90..100 lies inside root
		{Name: "a.1", Parent: 1, Start: 12, End: 18},
		{Name: "other", Parent: -1, Start: 200, End: 210},
	}
	want := []int64{100 - 40 - 10, 20 - 6, 30, 30, 6, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestTracerNilIsNoOp(t *testing.T) {
	var tr *tracer
	s := tr.begin("x", -1, 0)
	tr.end(s)
	tr.discard(s)
	live := newTracer(wallClock)
	r := live.begin("root", -1, 7)
	c := live.begin("child", r, 7)
	live.end(c)
	live.discard(c)
	live.end(r)
	if len(live.spans) != 1 || live.spans[0].Op != 7 || live.spans[0].End < live.spans[0].Start {
		t.Errorf("spans = %+v", live.spans)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program's metric
// tables in step: same workloads, names, units and directions, every name
// and unit legal, and a bound in (0, 0.25] on each end-to-end metric.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok || !validName(w.Name) {
			t.Errorf("workload %q unknown or ill-named", w.Name)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			better := "lower"
			if d.higher {
				better = "higher"
			}
			if g.Name != d.name || g.Unit != d.unit || g.Better != better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, program %s %s %s", kind, i, g, d.name, d.unit, better)
			}
			if !validName(g.Name) || !validUnit(g.Unit) {
				t.Errorf("%s: illegal name or unit %q %q", kind, g.Name, g.Unit)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound <= 0 || *g.Bound > 0.25)) {
				t.Errorf("%s %s: bound %v", kind, g.Name, g.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
	for _, d := range perLayer {
		if _, ok := workloads[d.workload]; !ok {
			t.Errorf("per-layer %s measured on unknown workload %q", d.name, d.workload)
		}
	}
}
