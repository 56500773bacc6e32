// Command vlcbench is the repository benchmark. It runs one named
// workload for a fixed time from a seed, checks the simulator's outputs,
// and prints every metric by name with its unit; the last line of its
// standard output is one JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced;
// with -trace 1 a separate traced run records spans around every call
// into a layer and reports the per-layer metrics. See README.md for the
// workloads, the metric map and how to run it.
//
// Usage (from the repository root):
//
//	bash vlcbench/run.sh --workload link_frames --seed 1 --seconds 15 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef declares one reported metric. BENCHMARK.json lists the same
// names, units and directions (checked by TestBenchmarkJSONMatches).
type metricDef struct {
	name, unit string
	// higher is true when a larger value is better.
	higher bool
	// workload names the workload whose traced run measures a per-layer
	// metric; the other workloads report it as 0.
	workload string
}

// endToEnd are the user-visible metrics, reported by every workload from
// its untraced run (see README.md for each workload's reading).
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "peak_rss_mb", unit: "MB"},
	{name: "frames_per_s", unit: "1/s", higher: true},
	{name: "frame_us_p50", unit: "us"},
	{name: "frame_us_p99", unit: "us"},
	{name: "frame_loss", unit: "ratio"},
	{name: "figures_s", unit: "s"},
	{name: "sim_speed", unit: "air_s/s", higher: true},
	{name: "goodput_kbps", unit: "kbps", higher: true},
}

const (
	wLink    = "link_frames"
	wFigures = "figures"
	wFleet   = "fleet_observed"
)

// pillars are the seven observability pillars fleet_observed arms, in
// the order the ablation reports them.
var pillars = []string{"telemetry", "span", "flight", "prof", "vlog", "health", "agg"}

// perLayer are the traced run's metrics, each measured on one workload.
var perLayer = func() []metricDef {
	const hi, lo = true, false
	d := []metricDef{
		{"scheme.codec_us", "us", lo, wLink},
		{"scheme.codec_hit_ratio", "ratio", hi, wLink},
		{"frame.build_us", "us", lo, wLink},
		{"frame.slots", "count", lo, wLink},
		{"photon.channel_us", "us", lo, wLink},
		{"phy.tx_us", "us", lo, wLink},
		{"phy.samples", "count", lo, wLink},
		{"phy.tx_ns_per_sample", "ns", lo, wLink},
		{"phy.rx_us", "us", lo, wLink},
		{"phy.rx_ok_ratio", "ratio", hi, wLink},
		{"phy.symbol_errors", "count", lo, wLink},
		{"mac.us", "us", lo, wLink},
		{"mac.retransmits", "count", lo, wLink},
		{"link.allocs_per_frame", "count", lo, wLink},
		{"link.bytes_per_frame", "B", lo, wLink},
		{"link.layer_sum_ratio", "ratio", hi, wLink},
		{"link.trace_overhead", "ratio", lo, wLink},
		{"photon.sample_ns", "ns", lo, wFigures},
		{"experiments.analytic_s", "s", lo, wFigures},
		{"experiments.fig4mc_s", "s", lo, wFigures},
		{"experiments.fig15_s", "s", lo, wFigures},
		{"experiments.fig16_s", "s", lo, wFigures},
		{"experiments.fig17_s", "s", lo, wFigures},
		{"experiments.fig19_s", "s", lo, wFigures},
		{"light.adjustments", "count", lo, wFigures},
		{"amppm.table_s", "s", lo, wFigures},
		{"parallel.speedup", "ratio", hi, wFigures},
		{"sim.codec_hit_ratio", "ratio", hi, wFigures},
		{"parallel.efficiency", "ratio", hi, wFleet},
		{"sim.session_ms_p50", "ms", lo, wFleet},
		{"sim.session_ms_p99", "ms", lo, wFleet},
		{"sim.bytes_per_session", "B", lo, wFleet},
		{"sim.allocs_per_session", "count", lo, wFleet},
	}
	for _, p := range pillars {
		d = append(d,
			metricDef{p + ".bytes_per_session", "B", lo, wFleet},
			metricDef{p + ".allocs_per_session", "count", lo, wFleet},
			metricDef{p + ".export_ms", "ms", lo, wFleet})
	}
	return append(d,
		metricDef{"runtime.gc_cycles", "count", lo, wFleet},
		metricDef{"runtime.gc_pause_ms", "ms", lo, wFleet},
		metricDef{"observer.dropped", "count", lo, wFleet})
}()

// scratchDir, relative to the checkout's root, holds the files a run
// writes: flight bundles while a fleet runs, and the span trace.
var scratchDir = filepath.Join(".bench_build", "vlcbench")

// runOpts are one run's command-line settings.
type runOpts struct {
	seed    uint64
	seconds int
	trace   bool
}

func (o runOpts) duration() time.Duration { return time.Duration(o.seconds) * time.Second }

// failures counts failed operations and keeps the first messages.
type failures struct {
	failed int
	msgs   []string
}

func (f *failures) fail(msg string) {
	f.failed++
	if len(f.msgs) < 16 {
		f.msgs = append(f.msgs, msg)
	}
}

// add merges another tally into f.
func (f *failures) add(o failures) {
	f.failed += o.failed
	for _, m := range o.msgs {
		if len(f.msgs) < 16 {
			f.msgs = append(f.msgs, m)
		}
	}
}

// outcome is what a workload reports back to the harness.
type outcome struct {
	attempted  int
	failures   failures
	e2e, layer map[string]float64
	// series are the timings behind the metrics, printed with their
	// sample count and within-run spread.
	series map[string][]float64
	params map[string]any
	tr     *tracer
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, series: map[string][]float64{}}
}

// setupProcesses is how many fresh processes time a workload's set-up.
// Set-up fills process-wide caches (the AMPPM planning table above all),
// so only a fresh process pays its full cost; setup_s is the median.
const setupProcesses = 7

// setupSpin is how long a set-up process keeps its core busy before it
// starts timing.
const setupSpin = 200 * time.Millisecond

// setups are the workloads' set-up steps, as timed by setup_s. The
// fleet's includes constructing one fleet's pillars in dir.
var setups = map[string]func(seed uint64, dir string) error{
	wLink:    func(seed uint64, _ string) error { _, err := newLinkBench(seed); return err },
	wFigures: func(seed uint64, _ string) error { _, err := newFigBench(seed); return err },
	wFleet: func(seed uint64, dir string) error {
		fs, err := newFleetSetup(seed)
		if err != nil {
			return err
		}
		_, err = fs.build(allPillars(), dir, 0)
		return err
	},
}

// setupOnce is a -setup-only process: it times the workload's set-up
// once, in CPU time like every timing of the benchmark. The fleet's
// flight bundle directories are created before the timer starts:
// directory creation costs about a millisecond each on a shared disk,
// with a spread that would swamp the set-up's own cost.
func setupOnce(workload string, seed uint64) (time.Duration, error) {
	setup, ok := setups[workload]
	if !ok {
		return 0, fmt.Errorf("unknown workload %q", workload)
	}
	dir, err := os.MkdirTemp(scratchDir, "setup-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	if workload == wFleet {
		for i := 0; i < fleetSessions; i++ {
			if err := os.MkdirAll(flightDir(dir, i), 0o755); err != nil {
				return 0, err
			}
		}
	}
	// Spin first, so that the set-up starts on a busy core, as the
	// workloads' own timings do.
	for t := time.Now(); time.Since(t) < setupSpin; {
	}
	t0 := processCPU()
	err = setup(seed, dir)
	return processCPU() - t0, err
}

// childSetup runs the workload's set-up in setupProcesses fresh copies of
// this program, one after another, and returns the median of the set-up
// times they measure in-process (process start-up is not counted).
func childSetup(workload string, o runOpts) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, fmt.Errorf("set-up timing: %w", err)
	}
	var secs []float64
	for i := 0; i < setupProcesses; i++ {
		cmd := exec.Command(exe, "-setup-only", "-workload", workload, "-seed", strconv.FormatUint(o.seed, 10))
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return 0, fmt.Errorf("set-up timing: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
		if err != nil {
			return 0, fmt.Errorf("set-up timing: %w", err)
		}
		secs = append(secs, v)
	}
	return median(secs), nil
}

var workloads = map[string]func(runOpts) (*outcome, error){
	wLink:    runLinkFrames,
	wFigures: runFigures,
	wFleet:   runFleetObserved,
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "vlcbench:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "", "workload: link_frames, figures or fleet_observed")
	seed := flag.Uint64("seed", 1, "workload seed (README.md names the default and held-out seeds)")
	seconds := flag.Int("seconds", 25, "measured run time in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run, 0 the untraced end-to-end run")
	setupOnly := flag.Bool("setup-only", false, "time the workload's set-up once and print the seconds")
	flag.Parse()
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return err
	}
	if *setupOnly {
		d, err := setupOnce(*workload, *seed)
		if err != nil {
			return err
		}
		fmt.Println(d.Seconds())
		return nil
	}
	fn, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		return fmt.Errorf("need -seconds ≥ 1 and -trace 0 or 1")
	}
	o := runOpts{seed: *seed, seconds: *seconds, trace: *trace == 1}
	res, err := fn(o)
	if err != nil {
		return fmt.Errorf("%s: %w", *workload, err)
	}
	metrics, err := collect(*workload, o.trace, res)
	if err != nil {
		return err
	}

	out := bufio.NewWriter(os.Stdout)
	prov, err := json.Marshal(provenance(*workload, o, res.params))
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "provenance %s\n", prov)
	for _, name := range sortedKeys(res.series) {
		xs := res.series[name]
		sp, err := spread(xs)
		if err != nil {
			sp = math.NaN()
		}
		fmt.Fprintf(out, "samples %s n=%d median=%.6g spread=%.4f\n", name, len(xs), median(xs), sp)
	}
	for _, m := range res.failures.msgs {
		fmt.Fprintf(out, "failure %s\n", m)
	}
	if res.tr != nil {
		path, err := res.tr.write(scratchDir, *workload, o.seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "trace %s (%d spans)\n", path, len(res.tr.spans))
	}
	for _, name := range sortedKeys(metrics) {
		fmt.Fprintf(out, "metric %-28s %14.6g %s\n", name, metrics[name].Value, metrics[name].Unit)
	}
	line, err := json.Marshal(report{
		Correct:   res.failures.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failures.failed,
		Metrics:   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	return out.Flush()
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// collect checks that the workload measured every metric the mode
// declares and attaches the units. Per-layer metrics that belong to
// another workload read 0. peak_rss_mb is read here, after the run.
func collect(workload string, traced bool, res *outcome) (map[string]metricValue, error) {
	if res.attempted < 1 {
		return nil, fmt.Errorf("no operation attempted")
	}
	out := map[string]metricValue{}
	if !traced {
		res.e2e["peak_rss_mb"] = peakRSSMB()
		for _, d := range endToEnd {
			if !validName(d.name) || !validUnit(d.unit) {
				return nil, fmt.Errorf("metric %q: illegal name or unit %q", d.name, d.unit)
			}
			v, ok := res.e2e[d.name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				return nil, fmt.Errorf("end-to-end metric %s not measured (got %v)", d.name, v)
			}
			out[d.name] = metricValue{v, d.unit}
		}
		return out, nil
	}
	for _, d := range perLayer {
		if !validName(d.name) || !validUnit(d.unit) {
			return nil, fmt.Errorf("metric %q: illegal name or unit %q", d.name, d.unit)
		}
		v, ok := res.layer[d.name]
		if d.workload == workload && (!ok || math.IsNaN(v) || math.IsInf(v, 0)) {
			return nil, fmt.Errorf("per-layer metric %s not measured (got %v)", d.name, v)
		}
		out[d.name] = metricValue{v, d.unit}
	}
	return out, nil
}

// peakRSSMB is the process's peak resident set (VmHWM), falling back to
// the Go runtime's total obtained memory where /proc is absent.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// provenance records where a run's numbers come from: the code, the
// toolchain, the host and the workload's inputs.
func provenance(workload string, o runOpts, params map[string]any) map[string]any {
	rev, modified := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
	}
	return map[string]any{
		"git_sha":      rev,
		"git_modified": modified,
		"go_version":   runtime.Version(),
		"cpu_model":    cpuModel(),
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"workload":     workload,
		"seed":         o.seed,
		"seconds":      o.seconds,
		"traced":       o.trace,
		"params":       params,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
