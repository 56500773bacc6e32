package sim

import (
	"fmt"
	"os"
	"path/filepath"

	"smartvlc/internal/parallel"
	"smartvlc/internal/telemetry"
	"smartvlc/internal/telemetry/agg"
	"smartvlc/internal/telemetry/health"
	"smartvlc/internal/telemetry/prof"
	"smartvlc/internal/telemetry/span"
	"smartvlc/internal/telemetry/vlog"
)

// FleetResult aggregates a fleet of independent sessions.
type FleetResult struct {
	// Results holds each session's outcome, in config order.
	Results []Result
	// Workers is the resolved worker count the fleet ran on.
	Workers int
	// Telemetry merges the per-session snapshots (counters and histogram
	// occupancies summed, gauges averaged, event traces elided) for the
	// sessions that carried a registry; nil when none did. Per-session
	// event traces and span trees are NOT merged — see telemetry.Merge for
	// the elision contract — but they are not lost either: each session's
	// Result retains its own Telemetry and Spans snapshots, and
	// WriteSessionTraces exports the span trees per session.
	Telemetry *telemetry.Snapshot
	// Health merges the per-session link-health series (counts summed,
	// rates recomputed, SLOs re-evaluated over the merged series) for the
	// sessions that carried a health config; nil when none did. Each
	// session's Result keeps its own Health snapshot. The merge folds in
	// config order, so the fleet health snapshot is byte-identical for
	// every worker count.
	Health *health.Snapshot
	// Prof merges the per-session stage-cost snapshots (counts summed per
	// series key) for the sessions that carried a profiler; nil when none
	// did. Each session's Result keeps its own Prof snapshot. The merge
	// folds in config order, so the fleet profile is byte-identical for
	// every worker count. Stage totals also ride the Telemetry merge as
	// prof_*_total counters — this field keeps the structured view.
	Prof *prof.Snapshot
	// Logs concatenates the per-session log snapshots in config order,
	// reassigning record IDs fleet-wide, for the sessions that carried a
	// logger; nil when none did. The elision contract (see vlog.Merge):
	// the merge does NOT re-apply any ring capacity — per-session drops
	// already happened — and the session boundary is elided from the
	// records themselves; recover it from the "sim/session" start/end
	// records or from each Result's own Logs snapshot, which is retained.
	// The fold runs in config order, so the fleet log is byte-identical
	// for every worker count.
	Logs *vlog.Snapshot
	// Agg is the final streaming-aggregator snapshot (fleet window rollup
	// pyramid plus worst-sessions tables) when the configs carried Watch
	// feeds; nil when none did. The feeds fold deltas in config order at
	// sim-clock window boundaries, so this too is byte-identical for every
	// worker count — and unlike the merges above, the same state was
	// observable live via Aggregator.Snapshot while the fleet ran.
	Agg *agg.Snapshot
}

// WriteSessionTraces exports each session's span snapshot into dir
// (created if absent) as session-NNN.spans.json (canonical snapshot) and
// session-NNN.trace.json (Chrome trace_event, Perfetto-loadable), indexed
// by config order. Sessions without a span collector are skipped. This is
// the fleet-mode counterpart to the merge elision: aggregates merge,
// traces export per session.
func (f FleetResult) WriteSessionTraces(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	for i, r := range f.Results {
		if r.Spans == nil {
			continue
		}
		b, err := r.Spans.JSON()
		if err != nil {
			return fmt.Errorf("sim: session %d spans: %w", i, err)
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("session-%03d.spans.json", i)), b, 0o644); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
		tf, err := os.Create(filepath.Join(dir, fmt.Sprintf("session-%03d.trace.json", i)))
		if err != nil {
			return fmt.Errorf("sim: %w", err)
		}
		if err := r.Spans.WriteChromeTrace(tf); err != nil {
			tf.Close()
			return fmt.Errorf("sim: session %d trace: %w", i, err)
		}
		if err := tf.Close(); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	return nil
}

// RunFleet runs one session per config concurrently across at most
// workers goroutines (workers < 1 selects GOMAXPROCS) and returns the
// results in config order. Sessions are fully independent — each draws
// from RNG streams derived from its own Seed and records into its own
// registry — so the fleet result is byte-identical for every worker
// count: Results[i] and its snapshot match a serial Run of cfgs[i], and
// the merged snapshot is a sequential fold in config order.
//
// Configs that share a telemetry registry are rejected: concurrent
// sessions writing one registry would interleave event traces
// nondeterministically. Give each session its own registry (or none) and
// read the merged snapshot.
func RunFleet(cfgs []Config, duration float64, workers int) (FleetResult, error) {
	if len(cfgs) == 0 {
		return FleetResult{}, fmt.Errorf("sim: fleet needs at least one config")
	}
	seen := make(map[*telemetry.Registry]int, len(cfgs))
	seenSpans := make(map[*span.Collector]int, len(cfgs))
	seenProf := make(map[*prof.Profiler]int, len(cfgs))
	seenLogs := make(map[*vlog.Logger]int, len(cfgs))
	seenFeeds := make(map[*agg.Feed]int, len(cfgs))
	var fleetAgg *agg.Aggregator
	for i, cfg := range cfgs {
		if cfg.Watch != nil {
			// A shared feed would interleave two sessions' deltas into one
			// window cursor; feeds across different aggregators would leave
			// no single fleet rollup to report.
			if j, dup := seenFeeds[cfg.Watch]; dup {
				return FleetResult{}, fmt.Errorf("sim: fleet configs %d and %d share a watch feed", j, i)
			}
			seenFeeds[cfg.Watch] = i
			if a := cfg.Watch.Aggregator(); fleetAgg == nil {
				fleetAgg = a
			} else if a != fleetAgg {
				return FleetResult{}, fmt.Errorf("sim: fleet config %d's watch feed belongs to a different aggregator", i)
			}
		}
		if cfg.Spans != nil {
			if j, dup := seenSpans[cfg.Spans]; dup {
				return FleetResult{}, fmt.Errorf("sim: fleet configs %d and %d share a span collector", j, i)
			}
			seenSpans[cfg.Spans] = i
		}
		if cfg.Prof != nil {
			// A shared profiler would double-count concurrent sessions and
			// make the per-session snapshots depend on completion order.
			if j, dup := seenProf[cfg.Prof]; dup {
				return FleetResult{}, fmt.Errorf("sim: fleet configs %d and %d share a stage profiler", j, i)
			}
			seenProf[cfg.Prof] = i
		}
		if cfg.Logs != nil {
			// A shared logger would interleave concurrent sessions' records
			// nondeterministically in one ring.
			if j, dup := seenLogs[cfg.Logs]; dup {
				return FleetResult{}, fmt.Errorf("sim: fleet configs %d and %d share a structured logger", j, i)
			}
			seenLogs[cfg.Logs] = i
		}
		if cfg.Telemetry == nil {
			continue
		}
		if j, dup := seen[cfg.Telemetry]; dup {
			return FleetResult{}, fmt.Errorf("sim: fleet configs %d and %d share a telemetry registry", j, i)
		}
		seen[cfg.Telemetry] = i
	}

	w := parallel.Workers(workers)
	if w > len(cfgs) {
		w = len(cfgs)
	}
	results, err := parallel.Map(w, len(cfgs), func(i int) (Result, error) {
		return Run(cfgs[i], duration)
	})
	if err != nil {
		return FleetResult{}, err
	}

	out := FleetResult{Results: results, Workers: w}
	snaps := make([]*telemetry.Snapshot, 0, len(results))
	for _, r := range results {
		if r.Telemetry != nil {
			snaps = append(snaps, r.Telemetry)
		}
	}
	if len(snaps) > 0 {
		out.Telemetry = telemetry.Merge(snaps...)
	}
	healths := make([]*health.Snapshot, 0, len(results))
	for _, r := range results {
		if r.Health != nil {
			healths = append(healths, r.Health)
		}
	}
	if len(healths) > 0 {
		out.Health = health.Merge(healths...)
	}
	profs := make([]*prof.Snapshot, 0, len(results))
	for _, r := range results {
		if r.Prof != nil {
			profs = append(profs, r.Prof)
		}
	}
	if len(profs) > 0 {
		out.Prof = prof.Merge(profs...)
	}
	logs := make([]*vlog.Snapshot, 0, len(results))
	for _, r := range results {
		if r.Logs != nil {
			logs = append(logs, r.Logs)
		}
	}
	if len(logs) > 0 {
		out.Logs = vlog.Merge(logs...)
	}
	if fleetAgg != nil {
		out.Agg = fleetAgg.Snapshot()
	}
	return out, nil
}
