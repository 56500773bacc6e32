// Command benchguard is the CI regression gate for the repo's recorded
// benchmark baselines: it re-runs guarded benchmark bodies in-process and
// fails when a measured ns/op regresses more than the tolerance over the
// recorded number in results/BENCH_phy.json. The default gate covers the
// observability layers' zero-cost claim (end_to_end_frame with both no-op
// defaults: nil metrics registry AND nil span collector), the fleet
// runner's single-worker path (fleet_sessions — the serial baseline the
// parallel speedups are measured against), and the link-health monitor's
// hot-path price (end_to_end_frame_health — a full ARQ session with the
// monitor armed, recorded a few % at most over its session_frames nil
// twin). It can also capture a deterministic metrics snapshot from a
// short instrumented session, for upload as a CI artifact.
//
// Besides the re-run gate, benchguard can statically audit a freshly
// generated phybench report (-results) against the recorded baseline:
// allocs/op must not grow (-gate-allocs), bytes/op on the zero-alloc
// entries must not creep past the baseline plus a small noise slack
// (-gate-bytes), per-core frame throughput and session throughput must
// hold within the tolerance (-gate-throughput),
// and every speedup curve must reach 1.0× at workers=4 (-gate-curves,
// skipped explicitly when the fresh report was taken on a single-core
// host, where parallel twins cannot beat their serial peers). A gated
// name missing from the fresh report is an error, never a skip — a
// renamed or dropped benchmark must not silently disarm its gate.
//
// A third mode gates the bench-history trend (-trend HISTORY.jsonl): the
// newest full run in the log is compared against the rolling median of the
// runs before it (window -trend-window, tolerance -trend-tolerance), and a
// regression names the pipeline stage behind the slow benchmark. The
// rolling median — not the previous run — is the denominator, so one noisy
// run neither trips nor poisons the gate.
//
// The static audit also holds the armed observability twins to their
// paired price: each -gate-overhead entry's overhead_vs_nil (its ns/op
// over its nil twin's, minus one, as recorded by phybench) must stay
// within -overhead-limit. The default pins the stage profiler's and the
// structured logger's session twins (end_to_end_frame_prof,
// end_to_end_frame_vlog) and the streaming fleet aggregation's
// (fleet_sessions_agg over fleet_sessions_telemetry) to 3%.
//
// Usage:
//
//	go run ./cmd/benchguard [-baseline results/BENCH_phy.json]
//	    [-bench end_to_end_frame,fleet_sessions,end_to_end_frame_health]
//	    [-tolerance 0.10] [-benchtime 2s] [-snapshot-out metrics.json]
//	    [-results fresh.json] [-gate-allocs names] [-gate-throughput names]
//	    [-gate-overhead names] [-overhead-limit 0.03]
//	    [-trend results/BENCH_history.jsonl] [-trend-window 5] [-trend-tolerance 0.10]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"smartvlc"
	"smartvlc/internal/bench"
	"smartvlc/internal/telemetry/prof/analyze"
)

type baselineEntry struct {
	Name                string  `json:"name"`
	NsPerOp             float64 `json:"ns_per_op"`
	BytesPerOp          int64   `json:"bytes_per_op"`
	AllocsPerOp         int64   `json:"allocs_per_op"`
	FramesPerSecPerCore float64 `json:"frames_per_sec_per_core"`
	SessionsPerSec      float64 `json:"sessions_per_sec"`
	OverheadVsNil       float64 `json:"overhead_vs_nil"`
}

type curvePoint struct {
	Workers int     `json:"workers"`
	Speedup float64 `json:"speedup_vs_serial"`
}

type speedupCurve struct {
	Name   string       `json:"name"`
	Points []curvePoint `json:"points"`
}

type baselineFile struct {
	NumCPU        int             `json:"num_cpu"`
	Benchmarks    []baselineEntry `json:"benchmarks"`
	SpeedupCurves []speedupCurve  `json:"speedup_curves"`
}

// lookup returns the named entry, or a loud error listing what the file
// actually holds — a gated name that has gone missing from a freshly
// generated report must fail the gate, not skip it.
func (f *baselineFile) lookup(path, name string) (*baselineEntry, error) {
	for i := range f.Benchmarks {
		if f.Benchmarks[i].Name == name {
			return &f.Benchmarks[i], nil
		}
	}
	have := make([]string, 0, len(f.Benchmarks))
	for _, e := range f.Benchmarks {
		have = append(have, e.Name)
	}
	return nil, fmt.Errorf("gated benchmark %q missing from %s (has: %s)", name, path, strings.Join(have, ", "))
}

func main() {
	baselinePath := flag.String("baseline", "results/BENCH_phy.json", "recorded benchmark baseline")
	benchNames := flag.String("bench", "end_to_end_frame,fleet_sessions,end_to_end_frame_health", "comma-separated baseline entries to guard")
	tolerance := flag.Float64("tolerance", 0.10, "allowed fractional regression over baseline")
	benchtime := flag.Duration("benchtime", 2*time.Second, "minimum measurement time per benchmark")
	snapshotOut := flag.String("snapshot-out", "", "also run a short instrumented session and write its telemetry snapshot JSON here")
	resultsPath := flag.String("results", "", "freshly generated phybench report to audit statically against the baseline (skips the re-run gate)")
	gateAllocs := flag.String("gate-allocs", "end_to_end_frame,receiver_process,phy_transmit,session_frames,fleet_sessions", "comma-separated entries whose allocs/op must not exceed the baseline's")
	gateBytes := flag.String("gate-bytes", "end_to_end_frame,receiver_process,phy_transmit", "comma-separated zero-alloc entries whose bytes/op must not creep past the baseline (small slack absorbs runtime accounting noise)")
	gateThroughput := flag.String("gate-throughput", "end_to_end_frame,receiver_process,fleet_sessions,session_frames", "comma-separated entries whose per-core frame / session throughput must hold within the tolerance")
	gateCurves := flag.Bool("gate-curves", true, "with -results: require every speedup curve to reach 1.0x at workers=4 (skipped on single-core hosts)")
	gateOverhead := flag.String("gate-overhead", "end_to_end_frame_prof,end_to_end_frame_vlog,fleet_sessions_agg", "with -results: comma-separated entries whose overhead_vs_nil must stay within -overhead-limit")
	overheadLimit := flag.Float64("overhead-limit", 0.03, "allowed fractional overhead over the nil twin for -gate-overhead entries")
	trendPath := flag.String("trend", "", "bench history log (BENCH_history.jsonl) to gate the newest run against its rolling median")
	trendWindow := flag.Int("trend-window", 5, "with -trend: rolling-median window in runs (0 = all)")
	trendTolerance := flag.Float64("trend-tolerance", 0.10, "with -trend: allowed fractional slowdown over the rolling median")
	flag.Parse()

	if *trendPath != "" {
		recs, err := bench.ReadHistory(*trendPath)
		if err != nil {
			fatal(err)
		}
		if analyze.ReportHistory(os.Stdout, recs, *trendWindow, *trendTolerance) {
			fmt.Fprintln(os.Stderr, "benchguard: trend REGRESSION (see report above)")
			os.Exit(1)
		}
		fmt.Println("benchguard: OK (trend)")
		return
	}

	if *resultsPath != "" {
		if err := auditResults(*resultsPath, *baselinePath, *gateAllocs, *gateBytes, *gateThroughput, *gateOverhead, *gateCurves, *tolerance, *overheadLimit); err != nil {
			fatal(err)
		}
		fmt.Println("benchguard: OK (static audit)")
		return
	}

	sys, err := smartvlc.New(smartvlc.DefaultConstraints())
	if err != nil {
		fatal(err)
	}

	if *snapshotOut != "" {
		if err := captureSnapshot(*snapshotOut, sys); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *snapshotOut)
	}

	bodies := map[string]func() func(b *testing.B){
		"end_to_end_frame":         func() func(b *testing.B) { return endToEndBody(sys) },
		"fleet_sessions":           func() func(b *testing.B) { return fleetBody(sys, false, false) },
		"fleet_sessions_telemetry": func() func(b *testing.B) { return fleetBody(sys, true, false) },
		"fleet_sessions_agg":       func() func(b *testing.B) { return fleetBody(sys, true, true) },
		"session_frames":           func() func(b *testing.B) { return sessionBody(sys, false, false, false) },
		"end_to_end_frame_health":  func() func(b *testing.B) { return sessionBody(sys, true, false, false) },
		"end_to_end_frame_prof":    func() func(b *testing.B) { return sessionBody(sys, false, true, false) },
		"end_to_end_frame_vlog":    func() func(b *testing.B) { return sessionBody(sys, false, false, true) },
	}

	failed := false
	for _, name := range strings.Split(*benchNames, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		mk, ok := bodies[name]
		if !ok {
			fatal(fmt.Errorf("no benchmark body for %q (known: end_to_end_frame, fleet_sessions, fleet_sessions_telemetry, fleet_sessions_agg, session_frames, end_to_end_frame_health, end_to_end_frame_prof, end_to_end_frame_vlog)", name))
		}
		base, err := loadBaseline(*baselinePath, name)
		if err != nil {
			fatal(err)
		}
		nsPerOp := measure(*benchtime, mk())
		limit := base * (1 + *tolerance)
		fmt.Printf("%s: measured %.0f ns/op, baseline %.0f ns/op, limit %.0f ns/op (+%.0f%%)\n",
			name, nsPerOp, base, limit, *tolerance*100)
		if nsPerOp > limit {
			fmt.Fprintf(os.Stderr, "benchguard: REGRESSION in %s: %.0f ns/op exceeds %.0f ns/op (%.1f%% over baseline)\n",
				name, nsPerOp, limit, (nsPerOp/base-1)*100)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("benchguard: OK")
}

// endToEndBody is the guarded default configuration: no registry and no
// span collector attached, every metric handle and span hook nil — both
// observability layers must cost nothing here. The spans-enabled twin
// (end_to_end_frame_spans in results/BENCH_phy.json) records the price of
// turning tracing on, for comparison rather than gating.
func endToEndBody(sys *smartvlc.System) func(b *testing.B) {
	slots, err := sys.BuildFrame(0.5, make([]byte, 128))
	if err != nil {
		fatal(err)
	}
	return func(b *testing.B) {
		misses := 0
		for i := 0; i < b.N; i++ {
			got, err := sys.Deliver(smartvlc.Aligned(3, 0), 8000, uint64(i), slots)
			if err != nil {
				b.Fatal(err)
			}
			if len(got) != 1 {
				misses++ // rare phase corners lose a frame; ARQ covers them
			}
		}
		if misses > b.N/20+1 {
			b.Fatalf("%d/%d frames lost", misses, b.N)
		}
	}
}

// fleetBody mirrors cmd/phybench's fleet_sessions workload family: 8
// independent sessions on the single-worker path, guarding the serial
// baseline that every recorded parallel speedup divides by. withTelemetry
// arms a registry per session (fleet_sessions_telemetry) and withAgg
// additionally wires every session into a streaming fleet aggregator
// (fleet_sessions_agg) — the pair behind the aggregation overhead gate.
func fleetBody(sys *smartvlc.System, withTelemetry, withAgg bool) func(b *testing.B) {
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfgs := make([]smartvlc.SessionConfig, 8)
			for j := range cfgs {
				cfg := smartvlc.DefaultSessionConfig(sys.Scheme())
				cfg.FixedLevel = 0.5
				cfg.Seed = uint64(j + 1)
				if withTelemetry {
					cfg.Telemetry = smartvlc.NewTelemetry()
				}
				cfgs[j] = cfg
			}
			if withAgg {
				fa, err := smartvlc.NewFleetAggregator(smartvlc.FleetAggConfig{WindowSeconds: 0.02}, len(cfgs))
				if err != nil {
					b.Fatal(err)
				}
				for j := range cfgs {
					feed, err := fa.Feed(smartvlc.FleetSessionMeta{
						Index: j, Seed: cfgs[j].Seed,
						Scheme: sys.Scheme().Name(), PayloadBytes: cfgs[j].PayloadBytes,
					})
					if err != nil {
						b.Fatal(err)
					}
					cfgs[j].Watch = feed
				}
			}
			fl, err := smartvlc.RunFleet(cfgs, 0.1, 1)
			if err != nil {
				b.Fatal(err)
			}
			if len(fl.Results) != 8 {
				b.Fatalf("fleet returned %d sessions", len(fl.Results))
			}
			if withAgg && (fl.Agg == nil || fl.Agg.SealedWindows == 0) {
				b.Fatal("fleet aggregation sealed no windows")
			}
		}
	}
}

// sessionBody runs one simulated 0.1 s ARQ session per op, with every
// observability layer off (session_frames), the link-health monitor
// armed (end_to_end_frame_health), the stage profiler armed
// (end_to_end_frame_prof), or the structured logger armed
// (end_to_end_frame_vlog) — the same twins cmd/phybench records, so the
// gate holds each layer to its recorded hot-path price.
func sessionBody(sys *smartvlc.System, withHealth, withProf, withLog bool) func(b *testing.B) {
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg := smartvlc.DefaultSessionConfig(sys.Scheme())
			cfg.FixedLevel = 0.5
			cfg.Seed = uint64(i + 1)
			if withHealth {
				cfg.Health = &smartvlc.HealthConfig{Objectives: smartvlc.DefaultHealthObjectives()}
			}
			if withProf {
				cfg.Prof = smartvlc.NewProfiler()
			}
			if withLog {
				cfg.Logs = smartvlc.NewLogger(smartvlc.LogDebug)
			}
			res, err := smartvlc.RunSession(cfg, 0.1)
			if err != nil {
				b.Fatal(err)
			}
			if res.FramesOK == 0 {
				b.Fatal("no frames delivered")
			}
			if withHealth && res.Health == nil {
				b.Fatal("missing health snapshot")
			}
			if withProf && res.Prof == nil {
				b.Fatal("missing profile snapshot")
			}
			if withLog && res.Logs == nil {
				b.Fatal("missing log snapshot")
			}
		}
	}
}

func loadFile(path string) (*baselineFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f baselineFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("benchguard: parse %s: %w", path, err)
	}
	return &f, nil
}

func loadBaseline(path, name string) (float64, error) {
	f, err := loadFile(path)
	if err != nil {
		return 0, err
	}
	e, err := f.lookup(path, name)
	if err != nil {
		return 0, err
	}
	if e.NsPerOp <= 0 {
		return 0, fmt.Errorf("benchguard: %q entry in %s has no ns/op", name, path)
	}
	return e.NsPerOp, nil
}

// splitNames parses a comma list, dropping empties.
func splitNames(list string) []string {
	var out []string
	for _, n := range strings.Split(list, ",") {
		if n = strings.TrimSpace(n); n != "" {
			out = append(out, n)
		}
	}
	return out
}

// auditResults runs the static gates over a freshly generated phybench
// report: no new allocations on the zero-alloc entries, per-core frame /
// session throughput within tolerance of the recorded baseline, and
// parallel scaling at workers=4. Every gated name must exist in the
// fresh report — lookup errors propagate, they are never downgraded to
// skips.
func auditResults(resultsPath, baselinePath, allocNames, byteNames, throughputNames, overheadNames string, curves bool, tolerance, overheadLimit float64) error {
	fresh, err := loadFile(resultsPath)
	if err != nil {
		return err
	}
	base, err := loadFile(baselinePath)
	if err != nil {
		return err
	}

	var failures []string
	for _, name := range splitNames(allocNames) {
		fe, err := fresh.lookup(resultsPath, name)
		if err != nil {
			return err
		}
		be, err := base.lookup(baselinePath, name)
		if err != nil {
			return err
		}
		fmt.Printf("%s: %d allocs/op (baseline %d)\n", name, fe.AllocsPerOp, be.AllocsPerOp)
		if fe.AllocsPerOp > be.AllocsPerOp {
			failures = append(failures, fmt.Sprintf("%s: %d allocs/op exceeds baseline %d", name, fe.AllocsPerOp, be.AllocsPerOp))
		}
	}

	// Bytes gate: the zero-alloc entries carry a few residual bytes/op of
	// runtime accounting (e.g. receiver_process's ~27 B/op), which jitter a
	// little between runs — so the limit gets 10% + 64 B of slack over the
	// baseline. Anything larger means a real allocation crept back into a
	// hot path the allocs gate's integer count might still round to zero.
	for _, name := range splitNames(byteNames) {
		fe, err := fresh.lookup(resultsPath, name)
		if err != nil {
			return err
		}
		be, err := base.lookup(baselinePath, name)
		if err != nil {
			return err
		}
		limit := be.BytesPerOp + be.BytesPerOp/10 + 64
		fmt.Printf("%s: %d B/op (baseline %d, limit %d)\n", name, fe.BytesPerOp, be.BytesPerOp, limit)
		if fe.BytesPerOp > limit {
			failures = append(failures, fmt.Sprintf("%s: %d B/op exceeds limit %d (baseline %d)", name, fe.BytesPerOp, limit, be.BytesPerOp))
		}
	}

	for _, name := range splitNames(throughputNames) {
		fe, err := fresh.lookup(resultsPath, name)
		if err != nil {
			return err
		}
		be, err := base.lookup(baselinePath, name)
		if err != nil {
			return err
		}
		check := func(metric string, got, want float64) {
			if want <= 0 {
				return
			}
			floor := want * (1 - tolerance)
			fmt.Printf("%s: %s %.0f/s (baseline %.0f/s, floor %.0f/s)\n", name, metric, got, want, floor)
			if got < floor {
				failures = append(failures, fmt.Sprintf("%s: %s %.0f/s below floor %.0f/s", name, metric, got, floor))
			}
		}
		check("frames_per_sec_per_core", fe.FramesPerSecPerCore, be.FramesPerSecPerCore)
		check("sessions_per_sec", fe.SessionsPerSec, be.SessionsPerSec)
	}

	// Paired-overhead gate: the armed observability twins must stay within
	// overheadLimit of their nil twins, as measured IN the fresh report —
	// both sides of the pair ran on the same host in the same session, so
	// the ratio is machine-independent in a way raw ns/op is not.
	for _, name := range splitNames(overheadNames) {
		fe, err := fresh.lookup(resultsPath, name)
		if err != nil {
			return err
		}
		fmt.Printf("%s: %+.1f%% vs nil twin (limit %+.1f%%)\n", name, fe.OverheadVsNil*100, overheadLimit*100)
		if fe.OverheadVsNil > overheadLimit {
			failures = append(failures, fmt.Sprintf("%s: %+.1f%% over nil twin exceeds %+.1f%% limit",
				name, fe.OverheadVsNil*100, overheadLimit*100))
		}
	}

	if curves {
		if fresh.NumCPU <= 1 {
			fmt.Printf("curve gate: SKIPPED — fresh report taken on a %d-CPU host; parallel twins cannot beat their serial peers there\n", fresh.NumCPU)
		} else {
			if len(fresh.SpeedupCurves) == 0 {
				return fmt.Errorf("benchguard: curve gate armed but %s records no speedup_curves", resultsPath)
			}
			for _, c := range fresh.SpeedupCurves {
				at4 := 0.0
				found := false
				for _, p := range c.Points {
					if p.Workers == 4 {
						at4, found = p.Speedup, true
					}
				}
				if !found {
					return fmt.Errorf("benchguard: curve %q has no workers=4 point", c.Name)
				}
				fmt.Printf("curve %s: %.2fx at workers=4\n", c.Name, at4)
				if at4 < 1.0 {
					failures = append(failures, fmt.Sprintf("curve %s: %.2fx at workers=4, below 1.0x", c.Name, at4))
				}
			}
		}
	}

	if len(failures) > 0 {
		return fmt.Errorf("benchguard: %d gate failure(s):\n  %s", len(failures), strings.Join(failures, "\n  "))
	}
	return nil
}

// captureSnapshot runs one short fully-instrumented session and writes
// its deterministic telemetry snapshot — the CI artifact that lets a
// reviewer inspect every metric the pipeline recorded for this commit.
func captureSnapshot(path string, sys *smartvlc.System) error {
	cfg := smartvlc.DefaultSessionConfig(sys.Scheme())
	cfg.FixedLevel = 0.5
	cfg.Telemetry = smartvlc.NewTelemetry()
	res, err := smartvlc.RunSession(cfg, 0.5)
	if err != nil {
		return err
	}
	j, err := res.Telemetry.JSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, j, 0o644)
}

// measure accumulates testing.Benchmark runs until benchtime is reached,
// as cmd/phybench does, and returns the merged ns/op.
func measure(benchtime time.Duration, body func(b *testing.B)) float64 {
	var total testing.BenchmarkResult
	for total.T < benchtime {
		r := testing.Benchmark(body)
		total.N += r.N
		total.T += r.T
	}
	return float64(total.T.Nanoseconds()) / float64(total.N)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchguard:", err)
	os.Exit(1)
}
