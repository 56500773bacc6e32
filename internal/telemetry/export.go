package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// CounterSnapshot is one counter series at snapshot time.
type CounterSnapshot struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Value  int64   `json:"value"`
}

// GaugeSnapshot is one gauge series at snapshot time. Weight is the
// number of session snapshots behind Value when the snapshot came out of
// Merge (absent or 0 means 1, a single session): carrying it lets a
// re-merge reconstruct each side's contribution and compute the true
// per-session mean, which is what makes Merge associative.
type GaugeSnapshot struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Value  float64 `json:"value"`
	Weight int64   `json:"weight,omitempty"`
}

// Bucket is one occupied histogram bucket: Index identifies the log2
// bucket (upper bound HistogramBucketBound(Index)); Count is its
// occupancy. Only occupied buckets appear in snapshots, keeping them
// sparse. The bound itself is not stored because the last bucket's bound
// is +Inf, which JSON cannot encode.
type Bucket struct {
	Index int   `json:"i"`
	Count int64 `json:"n"`
}

// BucketExemplars is the exemplar reservoir of one occupied bucket,
// sorted by exemplarLess (largest value first).
type BucketExemplars struct {
	Bucket    int        `json:"i"`
	Exemplars []Exemplar `json:"ex"`
}

// HistogramSnapshot is one histogram series at snapshot time.
type HistogramSnapshot struct {
	Name      string            `json:"name"`
	Labels    []Label           `json:"labels,omitempty"`
	Count     int64             `json:"count"`
	Sum       float64           `json:"sum"`
	Buckets   []Bucket          `json:"buckets,omitempty"`
	Exemplars []BucketExemplars `json:"exemplars,omitempty"`
}

// HistogramBucketBound returns the inclusive upper bound of log2 bucket i,
// +Inf for the last bucket. Exported so snapshot consumers can recover the
// bucket grid.
func HistogramBucketBound(i int) float64 { return histBound(i) }

// Snapshot is a point-in-time copy of a registry: every series, sorted by
// name then label signature, plus the buffered event trace. Because all
// ordering is canonical and every timestamp is deterministic, two
// snapshots of identically seeded sessions marshal to byte-identical
// JSON.
type Snapshot struct {
	Counters      []CounterSnapshot   `json:"counters"`
	Gauges        []GaugeSnapshot     `json:"gauges"`
	Histograms    []HistogramSnapshot `json:"histograms"`
	Events        []Event             `json:"events,omitempty"`
	EventsTotal   int64               `json:"events_total"`
	EventsDropped int64               `json:"events_dropped"`
}

// exemplarSnapshot flattens per-bucket reservoirs into the canonical
// sorted-by-bucket form used in snapshots. Returns nil when empty.
func exemplarSnapshot(ex map[int][]Exemplar) []BucketExemplars {
	if len(ex) == 0 {
		return nil
	}
	out := make([]BucketExemplars, 0, len(ex))
	for i, list := range ex {
		out = append(out, BucketExemplars{Bucket: i, Exemplars: list})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Bucket < out[b].Bucket })
	return out
}

// labelSig renders labels for sorting and Prometheus label blocks.
func labelSig(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l.Key + "=" + l.Value
	}
	return strings.Join(parts, ",")
}

// labelSigLess reports labelSig(a) < labelSig(b) without rendering either
// string. The canonical sorts call it a map-order-dependent number of
// times, so rendering there would make the allocation count of a snapshot
// vary from run to run.
func labelSigLess(a, b []Label) bool {
	ra, rb := sigReader{ls: a}, sigReader{ls: b}
	for {
		ca, okA := ra.next()
		cb, okB := rb.next()
		if !okA || !okB {
			return !okA && okB
		}
		if ca != cb {
			return ca < cb
		}
	}
}

// sigReader yields the bytes of labelSig(ls) one at a time.
type sigReader struct {
	ls      []Label
	inValue bool
	off     int
}

func (r *sigReader) next() (byte, bool) {
	for len(r.ls) > 0 {
		l := r.ls[0]
		switch {
		case !r.inValue && r.off < len(l.Key):
			r.off++
			return l.Key[r.off-1], true
		case !r.inValue:
			r.inValue, r.off = true, 0
			return '=', true
		case r.off < len(l.Value):
			r.off++
			return l.Value[r.off-1], true
		}
		r.inValue, r.off, r.ls = false, 0, r.ls[1:]
		if len(r.ls) > 0 {
			return ',', true
		}
	}
	return 0, false
}

// Snapshot captures the registry's current state. Returns an empty
// snapshot on a nil registry. Concurrent writers may land increments
// during the capture; within one single-threaded session (the
// deterministic case) the snapshot is exact.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		Counters:   []CounterSnapshot{},
		Gauges:     []GaugeSnapshot{},
		Histograms: []HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make([]*Counter, 0, len(r.counters))
	for _, c := range r.counters {
		counters = append(counters, c)
	}
	gauges := make([]*Gauge, 0, len(r.gauges))
	for _, g := range r.gauges {
		gauges = append(gauges, g)
	}
	hists := make([]*Histogram, 0, len(r.hists))
	for _, h := range r.hists {
		hists = append(hists, h)
	}
	r.mu.Unlock()

	for _, c := range counters {
		s.Counters = append(s.Counters, CounterSnapshot{Name: c.name, Labels: c.labels, Value: c.v.Load()})
	}
	for _, g := range gauges {
		s.Gauges = append(s.Gauges, GaugeSnapshot{Name: g.name, Labels: g.labels, Value: g.Value()})
	}
	for _, h := range hists {
		hs := HistogramSnapshot{Name: h.name, Labels: h.labels, Count: h.count.Load(), Sum: h.Sum()}
		for i := 0; i < histBuckets; i++ {
			if n := h.buckets[i].Load(); n > 0 {
				hs.Buckets = append(hs.Buckets, Bucket{Index: i, Count: n})
			}
		}
		hs.Exemplars = exemplarSnapshot(h.exemplars())
		s.Histograms = append(s.Histograms, hs)
	}
	s.sortCanonical()
	// One locked read for the whole triple: reading total after a separate
	// events() call would let a concurrent Emit land in between, producing
	// a snapshot whose EventsTotal disagrees with its event list.
	s.Events, s.EventsTotal, s.EventsDropped = r.trace.events()
	return s
}

// sortCanonical imposes the canonical series order — by name, then label
// signature — that makes snapshot exports byte-comparable.
func (s *Snapshot) sortCanonical() {
	sort.Slice(s.Counters, func(i, j int) bool {
		if s.Counters[i].Name != s.Counters[j].Name {
			return s.Counters[i].Name < s.Counters[j].Name
		}
		return labelSigLess(s.Counters[i].Labels, s.Counters[j].Labels)
	})
	sort.Slice(s.Gauges, func(i, j int) bool {
		if s.Gauges[i].Name != s.Gauges[j].Name {
			return s.Gauges[i].Name < s.Gauges[j].Name
		}
		return labelSigLess(s.Gauges[i].Labels, s.Gauges[j].Labels)
	})
	sort.Slice(s.Histograms, func(i, j int) bool {
		if s.Histograms[i].Name != s.Histograms[j].Name {
			return s.Histograms[i].Name < s.Histograms[j].Name
		}
		return labelSigLess(s.Histograms[i].Labels, s.Histograms[j].Labels)
	})
}

// JSON marshals the snapshot as canonical indented JSON: fixed field
// order, sorted series, shortest-round-trip float formatting — the
// byte-identical export the determinism tests pin.
func (s *Snapshot) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// JSON is shorthand for Snapshot().JSON(). On a nil registry it returns
// the empty snapshot's JSON.
func (r *Registry) JSON() ([]byte, error) { return r.Snapshot().JSON() }

// promFloat formats a float for the text exposition: shortest form that
// round-trips, +Inf spelled the Prometheus way.
func promFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// promLabels renders a {k="v",...} block, with extra appended last (used
// for histogram le labels). Returns "" for no labels.
func promLabels(labels []Label, extra ...string) string {
	if len(labels) == 0 && len(extra) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		writeLabelPair(&b, l.Key, l.Value)
	}
	for i := 0; i+1 < len(extra); i += 2 {
		if b.Len() > 1 {
			b.WriteByte(',')
		}
		writeLabelPair(&b, extra[i], extra[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// writeLabelPair emits k="escaped-v". The quotes are written manually:
// escapeLabel already produces exposition-format escapes, so feeding its
// output through %q would escape the escapes (\ → \\\\, " → \\").
func writeLabelPair(b *strings.Builder, k, v string) {
	b.WriteString(k)
	b.WriteString(`="`)
	b.WriteString(escapeLabel(v))
	b.WriteByte('"')
}

// WritePrometheus writes the snapshot in the Prometheus text exposition
// format (version 0.0.4): HELP/TYPE headers per family, series sorted
// canonically, histograms with cumulative le buckets.
func (s *Snapshot) WritePrometheus(w io.Writer, help map[string]string) error {
	seen := map[string]bool{}
	header := func(name, typ string) error {
		if seen[name] {
			return nil
		}
		seen[name] = true
		if h, ok := help[name]; ok {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, h); err != nil {
				return err
			}
		}
		_, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
		return err
	}
	for _, c := range s.Counters {
		if err := header(c.Name, "counter"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s%s %d\n", c.Name, promLabels(c.Labels), c.Value); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		if err := header(g.Name, "gauge"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s%s %s\n", g.Name, promLabels(g.Labels), promFloat(g.Value)); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		if err := header(h.Name, "histogram"); err != nil {
			return err
		}
		cum := int64(0)
		for _, b := range h.Buckets {
			cum += b.Count
			le := promFloat(HistogramBucketBound(b.Index))
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", h.Name, promLabels(h.Labels, "le", le), cum); err != nil {
				return err
			}
		}
		if len(h.Buckets) == 0 || h.Buckets[len(h.Buckets)-1].Index != histBuckets-1 {
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", h.Name, promLabels(h.Labels, "le", "+Inf"), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", h.Name, promLabels(h.Labels), promFloat(h.Sum)); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_count%s %d\n", h.Name, promLabels(h.Labels), h.Count); err != nil {
			return err
		}
	}
	return nil
}

// omFamily strips the _total suffix counters carry by convention: in
// OpenMetrics the family is named without it and the sample re-adds it.
func omFamily(name string) string { return strings.TrimSuffix(name, "_total") }

// omExemplar renders the OpenMetrics exemplar suffix for a bucket line:
// " # {seq=\"..\",span=\"..\",shard=\"..\"} value timestamp". Span and
// shard labels are omitted when zero. The timestamp is the exemplar's
// simulation time, which keeps the exposition deterministic.
func omExemplar(ex Exemplar) string {
	var b strings.Builder
	b.WriteString(" # {")
	writeLabelPair(&b, "seq", strconv.FormatInt(ex.Seq, 10))
	if ex.Span != 0 {
		b.WriteByte(',')
		writeLabelPair(&b, "span", strconv.FormatInt(ex.Span, 10))
	}
	if ex.Shard != 0 {
		b.WriteByte(',')
		writeLabelPair(&b, "shard", strconv.Itoa(ex.Shard))
	}
	b.WriteString("} ")
	b.WriteString(promFloat(ex.Value))
	b.WriteByte(' ')
	b.WriteString(promFloat(ex.At))
	return b.String()
}

// WriteOpenMetrics writes the snapshot in the OpenMetrics text format:
// like the Prometheus 0.0.4 exposition but with counter families named
// without their _total suffix, histogram bucket lines carrying exemplars
// (each occupied bucket's top reservoir entry), and a terminating # EOF.
// Classic WritePrometheus stays exemplar-free because the 0.0.4 format
// has no exemplar syntax.
func (s *Snapshot) WriteOpenMetrics(w io.Writer, help map[string]string) error {
	seen := map[string]bool{}
	header := func(family, typ string) error {
		if seen[family] {
			return nil
		}
		seen[family] = true
		if h, ok := help[family]; ok {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", family, h); err != nil {
				return err
			}
		}
		_, err := fmt.Fprintf(w, "# TYPE %s %s\n", family, typ)
		return err
	}
	for _, c := range s.Counters {
		fam := omFamily(c.Name)
		if err := header(fam, "counter"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_total%s %d\n", fam, promLabels(c.Labels), c.Value); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		if err := header(g.Name, "gauge"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s%s %s\n", g.Name, promLabels(g.Labels), promFloat(g.Value)); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		if err := header(h.Name, "histogram"); err != nil {
			return err
		}
		exByBucket := make(map[int]Exemplar, len(h.Exemplars))
		for _, be := range h.Exemplars {
			if len(be.Exemplars) > 0 {
				exByBucket[be.Bucket] = be.Exemplars[0]
			}
		}
		cum := int64(0)
		for _, b := range h.Buckets {
			cum += b.Count
			le := promFloat(HistogramBucketBound(b.Index))
			suffix := ""
			if ex, ok := exByBucket[b.Index]; ok {
				suffix = omExemplar(ex)
			}
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d%s\n", h.Name, promLabels(h.Labels, "le", le), cum, suffix); err != nil {
				return err
			}
		}
		if len(h.Buckets) == 0 || h.Buckets[len(h.Buckets)-1].Index != histBuckets-1 {
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", h.Name, promLabels(h.Labels, "le", "+Inf"), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", h.Name, promLabels(h.Labels), promFloat(h.Sum)); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_count%s %d\n", h.Name, promLabels(h.Labels), h.Count); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "# EOF\n")
	return err
}

// WriteOpenMetrics snapshots the registry and writes the OpenMetrics
// exposition. On a nil registry it writes only the # EOF terminator.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, "# EOF\n")
		return err
	}
	r.mu.Lock()
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.Unlock()
	return r.Snapshot().WriteOpenMetrics(w, help)
}

// WritePrometheus snapshots the registry and writes the text exposition.
// On a nil registry it writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.Unlock()
	return r.Snapshot().WritePrometheus(w, help)
}

// ParseSnapshot loads a snapshot written as canonical JSON (Snapshot.JSON,
// a -metrics-out file or the /metrics.json endpoint).
func ParseSnapshot(b []byte) (*Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("telemetry snapshot: %w", err)
	}
	return &s, nil
}

// WriteExemplars renders the snapshot's histogram exemplars as a
// drill-down table: one block per exemplar-bearing histogram series, one
// row per reservoir entry with the observation value, the sim-clock
// timestamp and the frame breadcrumbs — sequence number, root span ID
// (jump into vlctrace) and merge shard — that identify the frame behind
// a bucket's tail. Series and rows keep the snapshot's canonical order,
// so the report is deterministic.
func (s *Snapshot) WriteExemplars(w io.Writer) error {
	any := false
	for _, h := range s.Histograms {
		if len(h.Exemplars) == 0 {
			continue
		}
		name := h.Name
		if sig := labelSig(h.Labels); sig != "" {
			name += "{" + sig + "}"
		}
		if any {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		any = true
		if _, err := fmt.Fprintf(w, "%s\n", name); err != nil {
			return err
		}
		for _, be := range h.Exemplars {
			bound := "+Inf"
			if b := HistogramBucketBound(be.Bucket); !math.IsInf(b, 1) {
				bound = strconv.FormatFloat(b, 'g', -1, 64)
			}
			for _, ex := range be.Exemplars {
				line := fmt.Sprintf("  le %-10s value=%s at=%s seq=%d",
					bound, promFloat(ex.Value), promFloat(ex.At), ex.Seq)
				if ex.Span != 0 {
					line += fmt.Sprintf(" span=%d", ex.Span)
				}
				if ex.Shard != 0 {
					line += fmt.Sprintf(" shard=%d", ex.Shard)
				}
				if _, err := fmt.Fprintln(w, line); err != nil {
					return err
				}
			}
		}
	}
	if !any {
		_, err := fmt.Fprintln(w, "no exemplars recorded (arm telemetry and rerun)")
		return err
	}
	return nil
}
