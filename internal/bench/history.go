// Package bench holds the perf-trend record shared by cmd/phybench
// (writer), cmd/benchguard (trend gate) and cmd/vlcprof (regression
// naming): one JSON line per benchmark run, appended to
// results/BENCH_history.jsonl, carrying the commit identity and the
// ns/op of every benchmark body. The history is the denominator of the
// trend gates — a rolling median over prior runs absorbs single noisy
// runs that a fixed baseline file would canonize.
package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Record is one benchmark run in the history log.
type Record struct {
	// SHA is the git commit the run measured (phybench -sha; empty when
	// not provided).
	SHA string `json:"sha,omitempty"`
	// Stamp is the caller-provided run timestamp (phybench -stamp;
	// RFC 3339 by convention). It is a flag, not a clock read, so replayed
	// runs stay reproducible.
	Stamp string `json:"stamp,omitempty"`
	// GoVersion and NumCPU qualify the measurement host.
	GoVersion string `json:"go_version,omitempty"`
	NumCPU    int    `json:"num_cpu,omitempty"`
	// Quick marks smoke runs; trend consumers skip them by default.
	Quick bool `json:"quick,omitempty"`
	// NsPerOp maps benchmark name to its measured ns/op.
	NsPerOp map[string]float64 `json:"ns_per_op"`
	// SessionsPerSec maps each session-loop benchmark to its whole-session
	// throughput, trended alongside ns/op.
	SessionsPerSec map[string]float64 `json:"sessions_per_sec,omitempty"`
}

// Append writes rec as one JSON line at the end of path, creating the
// file and its directory if absent.
func Append(path string, rec Record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("bench: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	return nil
}

// ReadHistory loads every record of a history log in append order.
// Blank lines are skipped; a malformed line is an error (the log is
// machine-written).
func ReadHistory(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	defer f.Close()
	var recs []Record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("bench: %s:%d: %w", path, line, err)
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	return recs, nil
}

// RollingMedian returns the median ns/op of benchmark name over the last
// window full (non-quick) records of recs. ok is false when no full
// record carries the benchmark. A window of 0 or less uses every record.
func RollingMedian(recs []Record, name string, window int) (float64, bool) {
	var vals []float64
	for _, r := range recs {
		if r.Quick {
			continue
		}
		if v, has := r.NsPerOp[name]; has && v > 0 {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		return 0, false
	}
	if window > 0 && len(vals) > window {
		vals = vals[len(vals)-window:]
	}
	sort.Float64s(vals)
	if n := len(vals); n%2 == 1 {
		return vals[n/2], true
	} else {
		return (vals[n/2-1] + vals[n/2]) / 2, true
	}
}

// Names returns the sorted union of benchmark names across recs.
func Names(recs []Record) []string {
	set := map[string]bool{}
	for _, r := range recs {
		for n := range r.NsPerOp {
			set[n] = true
		}
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// StageFor maps a phybench benchmark name to the pipeline stage it
// exercises, in the stage profiler's naming — so trend reports can name
// the regressing stage, not just the benchmark. Unmapped names return "".
func StageFor(bench string) string {
	switch bench {
	case "phy_transmit", "phy_transmit_pcg":
		return "phy.tx"
	case "receiver_hunt":
		return "phy.hunt"
	case "receiver_process":
		return "phy.decode"
	case "end_to_end_frame", "end_to_end_frame_spans", "end_to_end_frame_health", "end_to_end_frame_prof",
		"session_frames", "fleet_sessions", "fleet_sessions_parallel",
		"broadcast_fanout", "broadcast_fanout_parallel":
		return "sim.frame"
	case "table_construction":
		return "amppm.plan"
	}
	return ""
}
