// Command vlcprof analyzes SmartVLC stage-cost profiles — the
// deterministic, sim-domain twin of a CPU profile that sessions export
// when SessionConfig.Prof is armed (smartvlc-sim -prof-out). It answers
// "where does the simulated pipeline spend its work" without a single
// wall-clock measurement, so two runs of one seed always agree.
//
// The rendering lives in internal/telemetry/prof/analyze (tested against
// pinned outputs); this command only loads inputs and picks the mode.
//
// Usage:
//
//	vlcprof top A.json            top-k stages by the selected metric
//	vlcprof levels A.json         per-dimming-level cost curves per stage
//	vlcprof folded A.json         folded stacks (flame-graph input) to stdout
//	vlcprof diff A.json B.json    series-by-series diff; names the top
//	                              regression, or reports a zero delta —
//	                              the determinism check for same-seed runs
//
// Flags:
//
//	-metric M      cost dimension: ops, samples, slots, symbols, bytes,
//	               allocs (default samples)
//	-top N         rows in the top/diff tables (default 10)
package main

import (
	"flag"
	"fmt"
	"os"

	"smartvlc/internal/telemetry/prof"
	"smartvlc/internal/telemetry/prof/analyze"
)

func main() {
	metric := flag.String("metric", "samples", "cost dimension: ops, samples, slots, symbols, bytes, allocs")
	top := flag.Int("top", 10, "rows in the top/diff tables")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: vlcprof [flags] top|levels|folded PROFILE | diff A B\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	m := prof.Metric(*metric)
	valid := false
	for _, known := range prof.Metrics() {
		if m == known {
			valid = true
		}
	}
	if !valid {
		fmt.Fprintf(os.Stderr, "vlcprof: unknown metric %q\n", *metric)
		os.Exit(2)
	}
	opt := analyze.Options{Metric: m, Top: *top}

	var err error
	switch mode, n := flag.Arg(0), flag.NArg(); {
	case mode == "top" && n == 2:
		err = withSnapshot(flag.Arg(1), func(s *prof.Snapshot) error {
			analyze.ReportTop(os.Stdout, s, opt)
			return nil
		})
	case mode == "levels" && n == 2:
		err = withSnapshot(flag.Arg(1), func(s *prof.Snapshot) error {
			analyze.ReportLevels(os.Stdout, s, opt)
			return nil
		})
	case mode == "folded" && n == 2:
		err = withSnapshot(flag.Arg(1), func(s *prof.Snapshot) error {
			return s.WriteFolded(os.Stdout, m)
		})
	case mode == "diff" && n == 3:
		err = runDiff(flag.Arg(1), flag.Arg(2), opt)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "vlcprof: %v\n", err)
		os.Exit(1)
	}
}

func withSnapshot(path string, fn func(*prof.Snapshot) error) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	snap, err := prof.ParseSnapshot(b)
	if err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	return fn(snap)
}

func runDiff(pathA, pathB string, opt analyze.Options) error {
	return withSnapshot(pathA, func(a *prof.Snapshot) error {
		return withSnapshot(pathB, func(b *prof.Snapshot) error {
			analyze.ReportDiff(os.Stdout, a, b, opt)
			return nil
		})
	})
}
