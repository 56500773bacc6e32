package prof

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"smartvlc/internal/telemetry"
)

// JSON marshals the snapshot as canonical indented JSON — fixed field
// order, canonical series order, trailing newline — the byte-identical
// export the determinism tests pin.
func (s *Snapshot) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// ParseSnapshot decodes a snapshot previously written by JSON and
// restores canonical order (tolerating hand-edited inputs).
func ParseSnapshot(b []byte) (*Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, err
	}
	if s.Series == nil {
		s.Series = []Series{}
	}
	s.sortCanonical()
	return &s, nil
}

// WriteFolded writes the snapshot in collapsed-stack format — one
// "scheme;level;stage[;shard] weight" line per series, weighted by the
// chosen metric — loadable by speedscope, flamegraph.pl and pprof's
// folded importer. Zero-weight series are elided.
func (s *Snapshot) WriteFolded(w io.Writer, m Metric) error {
	for _, se := range s.Series {
		v := se.Counts.Get(m)
		if v == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", se.Key.frames(), v); err != nil {
			return err
		}
	}
	return nil
}

// Merge combines per-session snapshots into one aggregate by summing
// each key's cost vector. Like telemetry.Merge it is a pure sequential
// fold, so a deterministic argument order yields byte-identical output
// no matter how many workers produced the inputs. Nil snapshots are
// skipped.
func Merge(snaps ...*Snapshot) *Snapshot {
	acc := map[Key]*Counts{}
	for _, s := range snaps {
		if s == nil {
			continue
		}
		for _, se := range s.Series {
			c, ok := acc[se.Key]
			if !ok {
				c = &Counts{}
				acc[se.Key] = c
			}
			c.add(se.Counts)
		}
	}
	out := &Snapshot{Series: make([]Series, 0, len(acc))}
	for k, c := range acc {
		out.Series = append(out.Series, Series{Key: k, Counts: *c})
	}
	out.sortCanonical()
	return out
}

// Delta is one key's cost in two snapshots being compared. A key absent
// from one side contributes a zero Counts there.
type Delta struct {
	Key
	A Counts `json:"a"`
	B Counts `json:"b"`
}

// Diff compares two snapshots key by key, returning one Delta per key
// present in either, in canonical order. Keys with identical cost
// vectors on both sides are included — callers filter with Changed —
// so the output is a complete side-by-side table.
func Diff(a, b *Snapshot) []Delta {
	keys := map[Key]*Delta{}
	if a != nil {
		for _, se := range a.Series {
			keys[se.Key] = &Delta{Key: se.Key, A: se.Counts}
		}
	}
	if b != nil {
		for _, se := range b.Series {
			d, ok := keys[se.Key]
			if !ok {
				d = &Delta{Key: se.Key}
				keys[se.Key] = d
			}
			d.B = se.Counts
		}
	}
	out := make([]Delta, 0, len(keys))
	for _, d := range keys {
		out = append(out, *d)
	}
	sort.Slice(out, func(i, j int) bool { return keyLess(out[i].Key, out[j].Key) })
	return out
}

// Changed reports whether the two sides differ in any dimension.
func (d Delta) Changed() bool { return d.A != d.B }

// TopRegression returns the delta with the largest relative growth of
// metric m from A to B (new keys count as fully grown), or false when
// nothing grew. It is the "name the stage responsible" primitive behind
// vlcprof diff.
func TopRegression(deltas []Delta, m Metric) (Delta, bool) {
	best := -1
	var bestGrowth float64
	for i, d := range deltas {
		a, b := d.A.Get(m), d.B.Get(m)
		if b <= a {
			continue
		}
		growth := float64(b-a) / float64(max64(a, 1))
		if best < 0 || growth > bestGrowth {
			best, bestGrowth = i, growth
		}
	}
	if best < 0 {
		return Delta{}, false
	}
	return deltas[best], true
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Publish mirrors the profiler's totals into a telemetry registry as
// labeled counters (prof_ops_total, prof_samples_total, prof_slots_total,
// prof_symbols_total, prof_bytes_total, prof_allocs_total; labels stage,
// scheme, level, shard). Called once at session finalization, before the
// registry snapshot is taken, so fleet aggregation inherits stage costs
// through telemetry.Merge with no profiler-specific plumbing. No-op when
// either side is nil.
func (p *Profiler) Publish(reg *telemetry.Registry) {
	if p == nil || reg == nil {
		return
	}
	s := p.Snapshot()
	for _, se := range s.Series {
		labels := []string{"stage", se.Stage, "scheme", se.Scheme, "level", se.Level, "shard", se.Shard}
		for _, m := range Metrics() {
			if v := se.Counts.Get(m); v != 0 {
				reg.Counter("prof_"+string(m)+"_total", labels...).Add(v)
			}
		}
	}
}
