package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// traceSpan is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Op is the frame or session the call
// served; Parent indexes the enclosing span (-1 for a root).
type traceSpan struct {
	Name   string `json:"name"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op"`
	Start  int64  `json:"start_ns"` // on the tracer's clock
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for the run and writes them out at the
// end. Its clock is the one the workload times itself with (threadCPU or
// processCPU). A nil *tracer records nothing, so the untraced paths carry
// the same calls at the cost of a nil check.
type tracer struct {
	clock func() time.Duration
	spans []traceSpan
}

func newTracer(clock func() time.Duration) *tracer { return &tracer{clock: clock} }

// processStart anchors wallClock.
var processStart = time.Now()

// wallClock is monotonic wall time since the process started.
func wallClock() time.Duration { return time.Since(processStart) }

// begin opens a span and returns its index for end.
func (t *tracer) begin(name string, parent int32, op int64) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, traceSpan{Name: name, Parent: parent, Op: op, Start: int64(t.clock())})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(t.clock())
}

// discard drops span i and every span opened after it (an iteration
// that produced no frame).
func (t *tracer) discard(i int32) {
	if t == nil {
		return
	}
	t.spans = t.spans[:i]
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its direct children cover (overlapping children count
// once, and child time outside the parent is ignored).
func selfTimes(spans []traceSpan) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	type iv struct{ a, b int64 }
	var ivs []iv
	for i, s := range spans {
		ivs = ivs[:0]
		for _, c := range children[i] {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, curA, curB int64
		open := false
		for _, v := range ivs {
			switch {
			case !open:
				curA, curB, open = v.a, v.b, true
			case v.a <= curB:
				curB = max(curB, v.b)
			default:
				covered += curB - curA
				curA, curB = v.a, v.b
			}
		}
		if open {
			covered += curB - curA
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// maxWrittenSpans bounds the trace file: the first spans of a run show
// its structure, and the per-layer metrics already summarize all of them.
const maxWrittenSpans = 50000

// write saves the first maxWrittenSpans spans as NDJSON, headed by a line
// giving the total count, and returns the file path.
func (t *tracer) write(dir, workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.ndjson", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	n := min(len(t.spans), maxWrittenSpans)
	if err := enc.Encode(map[string]any{"workload": workload, "seed": seed, "spans": len(t.spans), "written": n}); err != nil {
		f.Close()
		return "", fmt.Errorf("trace: %w", err)
	}
	for _, s := range t.spans[:n] {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", fmt.Errorf("trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	return path, nil
}
