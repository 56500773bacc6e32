// Package analyze renders the human-readable cost reports behind
// cmd/vlcprof: top-k stage tables, per-dimming-level cost curves and
// profile diffs. Extracting the rendering from the command makes the
// output testable against pinned strings; the command stays a thin loader
// around this package.
//
// All output is deterministic given the inputs: series arrive in the
// snapshot's canonical order and every aggregation sorts its keys.
package analyze

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"smartvlc/internal/telemetry/prof"
)

// Options parameterizes a report.
type Options struct {
	// Metric selects the cost dimension. Empty means samples.
	Metric prof.Metric
	// Top bounds the top-k tables. Zero or negative means 10.
	Top int
}

func (o Options) withDefaults() Options {
	if o.Metric == "" {
		o.Metric = prof.MetricSamples
	}
	if o.Top <= 0 {
		o.Top = 10
	}
	return o
}

// stageKey aggregates series across levels and shards: the unit of the
// top-k table.
type stageKey struct{ Stage, Scheme string }

// ReportTop writes the top-k stages by the selected metric, aggregated
// across dimming levels and shards, with each stage's share of the total.
func ReportTop(w io.Writer, snap *prof.Snapshot, opt Options) {
	opt = opt.withDefaults()
	agg := map[stageKey]int64{}
	var total int64
	for _, s := range snap.Series {
		v := s.Counts.Get(opt.Metric)
		if v == 0 {
			continue
		}
		agg[stageKey{s.Key.Stage, s.Key.Scheme}] += v
		total += v
	}
	fmt.Fprintf(w, "top stages by %s (%d series, total %d):\n", opt.Metric, len(snap.Series), total)
	if total == 0 {
		fmt.Fprintln(w, "  (no cost recorded)")
		return
	}
	keys := make([]stageKey, 0, len(agg))
	for k := range agg {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if agg[keys[i]] != agg[keys[j]] {
			return agg[keys[i]] > agg[keys[j]]
		}
		if keys[i].Stage != keys[j].Stage {
			return keys[i].Stage < keys[j].Stage
		}
		return keys[i].Scheme < keys[j].Scheme
	})
	if len(keys) > opt.Top {
		keys = keys[:opt.Top]
	}
	for _, k := range keys {
		name := k.Stage
		if k.Scheme != "" {
			name += " (" + k.Scheme + ")"
		}
		fmt.Fprintf(w, "  %-28s %14d  %5.1f%%\n", name, agg[k], 100*float64(agg[k])/float64(total))
	}
}

// ReportLevels writes each stage's cost curve across dimming levels: the
// per-level view behind the paper's tent-shaped capacity envelope, on the
// cost axis instead of the throughput axis. Shards are summed per level.
func ReportLevels(w io.Writer, snap *prof.Snapshot, opt Options) {
	opt = opt.withDefaults()
	type curve struct {
		levels map[string]int64
		max    int64
	}
	curves := map[stageKey]*curve{}
	for _, s := range snap.Series {
		v := s.Counts.Get(opt.Metric)
		if v == 0 {
			continue
		}
		k := stageKey{s.Key.Stage, s.Key.Scheme}
		c := curves[k]
		if c == nil {
			c = &curve{levels: map[string]int64{}}
			curves[k] = c
		}
		c.levels[s.Key.Level] += v
		if c.levels[s.Key.Level] > c.max {
			c.max = c.levels[s.Key.Level]
		}
	}
	fmt.Fprintf(w, "per-level %s by stage:\n", opt.Metric)
	if len(curves) == 0 {
		fmt.Fprintln(w, "  (no cost recorded)")
		return
	}
	keys := make([]stageKey, 0, len(curves))
	for k := range curves {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Stage != keys[j].Stage {
			return keys[i].Stage < keys[j].Stage
		}
		return keys[i].Scheme < keys[j].Scheme
	})
	for _, k := range keys {
		c := curves[k]
		name := k.Stage
		if k.Scheme != "" {
			name += " (" + k.Scheme + ")"
		}
		fmt.Fprintf(w, "  %s:\n", name)
		levels := make([]string, 0, len(c.levels))
		for l := range c.levels {
			levels = append(levels, l)
		}
		sort.Strings(levels)
		for _, l := range levels {
			v := c.levels[l]
			bar := ""
			if c.max > 0 {
				bar = strings.Repeat("#", int(24*v/c.max))
			}
			label := l
			if label == "" {
				label = "(none)"
			}
			fmt.Fprintf(w, "    level %-6s %14d  %s\n", label, v, bar)
		}
	}
}

// ReportDiff writes the changed series between two profiles and names the
// top regression by relative growth of the selected metric. Identical
// profiles report a zero delta explicitly — the determinism check
// `vlcprof diff a.json b.json` on two same-seed runs rests on that line.
func ReportDiff(w io.Writer, a, b *prof.Snapshot, opt Options) {
	opt = opt.withDefaults()
	deltas := prof.Diff(a, b)
	var changed []prof.Delta
	for _, d := range deltas {
		if d.Changed() {
			changed = append(changed, d)
		}
	}
	if len(changed) == 0 {
		fmt.Fprintf(w, "profiles identical: zero delta across %d series\n", len(deltas))
		return
	}
	fmt.Fprintf(w, "%d of %d series changed:\n", len(changed), len(deltas))
	show := changed
	if len(show) > opt.Top {
		show = show[:opt.Top]
	}
	for _, d := range show {
		name := d.Key.Stage
		if d.Key.Scheme != "" || d.Key.Level != "" {
			name += " (" + d.Key.Scheme + " @ " + d.Key.Level + ")"
		}
		if d.Key.Shard != "" {
			name += " [" + d.Key.Shard + "]"
		}
		va, vb := d.A.Get(opt.Metric), d.B.Get(opt.Metric)
		fmt.Fprintf(w, "  %-40s %s %d -> %d (%+d)\n", name, opt.Metric, va, vb, vb-va)
	}
	if len(changed) > len(show) {
		fmt.Fprintf(w, "  ... %d more\n", len(changed)-len(show))
	}
	if worst, ok := prof.TopRegression(deltas, opt.Metric); ok {
		va, vb := worst.A.Get(opt.Metric), worst.B.Get(opt.Metric)
		growth := 100 * float64(vb-va) / float64(max64(va, 1))
		fmt.Fprintf(w, "top regression: %s %s %d -> %d (%+.1f%%)\n",
			describeKey(worst.Key), opt.Metric, va, vb, growth)
	} else {
		fmt.Fprintf(w, "no %s regression: every changed series shrank or moved other metrics\n", opt.Metric)
	}
}

func describeKey(k prof.Key) string {
	name := k.Stage
	if k.Scheme != "" || k.Level != "" {
		name += " (" + k.Scheme + " @ " + k.Level + ")"
	}
	if k.Shard != "" {
		name += " [" + k.Shard + "]"
	}
	return name
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
