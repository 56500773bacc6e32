package vlog

import (
	"bytes"
	"strings"
	"testing"
)

func TestRecordOrderAndIDs(t *testing.T) {
	l := New(Debug)
	for i := 0; i < 5; i++ {
		l.Record(Record{At: float64(i), Level: Info, Stage: "test", Seq: int64(i)})
	}
	s := l.Snapshot()
	if s.Total != 5 || s.Dropped != 0 || len(s.Records) != 5 {
		t.Fatalf("total=%d dropped=%d len=%d", s.Total, s.Dropped, len(s.Records))
	}
	for i, r := range s.Records {
		if r.ID != int64(i+1) || r.Seq != int64(i) {
			t.Fatalf("record %d: id=%d seq=%d", i, r.ID, r.Seq)
		}
	}
}

func TestRingDropsOldest(t *testing.T) {
	l := New(Debug)
	l.SetCapacity(4)
	for i := 0; i < 10; i++ {
		l.Record(Record{Level: Info, Seq: int64(i)})
	}
	s := l.Snapshot()
	if s.Total != 10 || s.Dropped != 6 {
		t.Fatalf("total=%d dropped=%d", s.Total, s.Dropped)
	}
	if len(s.Records) != 4 {
		t.Fatalf("len=%d", len(s.Records))
	}
	for i, r := range s.Records {
		if r.Seq != int64(6+i) {
			t.Fatalf("record %d: seq=%d, want %d (oldest-first tail)", i, r.Seq, 6+i)
		}
		if r.ID != int64(7+i) {
			t.Fatalf("record %d: id=%d, want %d", i, r.ID, 7+i)
		}
	}
}

func TestLevelFilter(t *testing.T) {
	l := New(Warn)
	if l.Enabled(Info) {
		t.Fatal("Info enabled on a Warn logger")
	}
	if !l.Enabled(Error) {
		t.Fatal("Error disabled on a Warn logger")
	}
	l.Record(Record{Level: Debug})
	l.Record(Record{Level: Warn})
	l.Record(Record{Level: Error})
	if s := l.Snapshot(); s.Total != 2 {
		t.Fatalf("total=%d, want 2", s.Total)
	}
}

func TestNilSafety(t *testing.T) {
	var l *Logger
	if l.Enabled(Error) {
		t.Fatal("nil logger enabled")
	}
	if id := l.Record(Record{Level: Error}); id != 0 {
		t.Fatalf("nil record id=%d", id)
	}
	l.SetCapacity(8)
	var b *Buffer
	if b.Enabled(Error) {
		t.Fatal("nil buffer enabled")
	}
	b.Record(Record{Level: Error})
	b.Reset()
	if b.Len() != 0 || b.Records() != nil {
		t.Fatal("nil buffer not empty")
	}
	l.Splice(b, 1, 2, "rx0") // must not panic
	s := l.Snapshot()
	if len(s.Records) != 0 || s.Total != 0 {
		t.Fatal("nil snapshot not empty")
	}
	if _, err := s.JSON(); err != nil {
		t.Fatal(err)
	}
}

func TestSpliceFillsCorrelationKeys(t *testing.T) {
	l := New(Debug)
	var b Buffer
	b.Arm(l.Min())
	b.Record(Record{At: 1, Level: Warn, Stage: "phy/decode", Seq: -1})
	b.Record(Record{At: 2, Level: Info, Stage: "mac/ack", Seq: 9, Span: 3, Shard: "rx7"})
	l.Splice(&b, 42, 5, "rx1")
	if b.Len() != 0 {
		t.Fatal("buffer not reset after splice")
	}
	s := l.Snapshot()
	if len(s.Records) != 2 {
		t.Fatalf("len=%d", len(s.Records))
	}
	r0, r1 := s.Records[0], s.Records[1]
	if r0.Span != 42 || r0.Seq != 5 || r0.Shard != "rx1" {
		t.Fatalf("defaults not filled: %+v", r0)
	}
	if r1.Span != 3 || r1.Seq != 9 || r1.Shard != "rx7" {
		t.Fatalf("explicit keys overwritten: %+v", r1)
	}
}

func TestBufferLevelFilter(t *testing.T) {
	var b Buffer
	b.Arm(Warn)
	b.Record(Record{Level: Debug})
	b.Record(Record{Level: Error})
	if b.Len() != 1 {
		t.Fatalf("len=%d, want 1", b.Len())
	}
	if b.Enabled(Info) {
		t.Fatal("Info enabled on a Warn buffer")
	}
}

// TestSpliceOrderMatchesSerial pins the worker-invariance contract: a
// shard buffer spliced after direct records reproduces the exact record
// sequence of a serial run that interleaved them in the same order.
func TestSpliceOrderMatchesSerial(t *testing.T) {
	direct := New(Debug)
	direct.Record(Record{At: 1, Level: Info, Stage: "a", Seq: 0})
	direct.Record(Record{At: 2, Level: Info, Stage: "b", Seq: 0, Shard: "rx0"})
	direct.Record(Record{At: 3, Level: Info, Stage: "c", Seq: 0, Shard: "rx1"})

	sharded := New(Debug)
	sharded.Record(Record{At: 1, Level: Info, Stage: "a", Seq: 0})
	var b0, b1 Buffer
	b0.Arm(sharded.Min())
	b1.Arm(sharded.Min())
	// Shards record "concurrently"; splice replays in shard order.
	b1.Record(Record{At: 3, Level: Info, Stage: "c", Seq: -1})
	b0.Record(Record{At: 2, Level: Info, Stage: "b", Seq: -1})
	sharded.Splice(&b0, 0, 0, "rx0")
	sharded.Splice(&b1, 0, 0, "rx1")

	dj, err := direct.Snapshot().NDJSON()
	if err != nil {
		t.Fatal(err)
	}
	sj, err := sharded.Snapshot().NDJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dj, sj) {
		t.Fatalf("serial vs sharded NDJSON differ:\n%s\nvs\n%s", dj, sj)
	}
}

func TestNDJSONRoundTrip(t *testing.T) {
	l := New(Debug)
	l.Record(Record{At: 0.25, Level: Warn, Stage: "phy/decode", Msg: "preamble miss", Seq: 3, Span: 7,
		Scheme: "AMPPM", Dim: "0.5", Attrs: []Attr{{Key: "class", Value: "ser"}}})
	l.Record(Record{At: 0.5, Level: Error, Stage: "sim/slo", Msg: "critical", Seq: -1})
	snap := l.Snapshot()
	nd, err := snap.NDJSON()
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(nd, []byte{'\n'}); n != 2 {
		t.Fatalf("%d lines, want 2:\n%s", n, nd)
	}
	back, err := ParseNDJSON(bytes.NewReader(nd))
	if err != nil {
		t.Fatal(err)
	}
	nd2, err := back.NDJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(nd, nd2) {
		t.Fatalf("round trip differs:\n%s\nvs\n%s", nd, nd2)
	}
	if back.Total != 2 {
		t.Fatalf("parsed total=%d", back.Total)
	}
}

func TestParseNDJSONRejectsGarbage(t *testing.T) {
	if _, err := ParseNDJSON(strings.NewReader("{\"id\":1}\nnot json\n")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestTail(t *testing.T) {
	l := New(Debug)
	for i := 0; i < 6; i++ {
		l.Record(Record{Level: Info, Seq: int64(i)})
	}
	s := l.Snapshot()
	tl := s.Tail(2)
	if len(tl.Records) != 2 || tl.Records[0].Seq != 4 || tl.Records[1].Seq != 5 {
		t.Fatalf("tail wrong: %+v", tl.Records)
	}
	if tl.Total != 6 {
		t.Fatalf("tail total=%d, want 6 (accounting carries over)", tl.Total)
	}
	if all := s.Tail(0); len(all.Records) != 6 {
		t.Fatalf("tail(0) len=%d", len(all.Records))
	}
	if all := s.Tail(100); len(all.Records) != 6 {
		t.Fatalf("tail(100) len=%d", len(all.Records))
	}
}

func TestMergeConfigOrder(t *testing.T) {
	a := New(Debug)
	a.Record(Record{At: 5, Level: Info, Stage: "a"})
	b := New(Debug)
	b.Record(Record{At: 1, Level: Info, Stage: "b"})
	b.Record(Record{At: 2, Level: Info, Stage: "b"})
	m := Merge(a.Snapshot(), nil, b.Snapshot())
	if len(m.Records) != 3 || m.Total != 3 {
		t.Fatalf("len=%d total=%d", len(m.Records), m.Total)
	}
	// Config order, not time order: session a's record leads.
	if m.Records[0].Stage != "a" || m.Records[1].Stage != "b" {
		t.Fatalf("merge order wrong: %+v", m.Records)
	}
	for i, r := range m.Records {
		if r.ID != int64(i+1) {
			t.Fatalf("merged id %d at %d", r.ID, i)
		}
	}
	if e := Merge(); len(e.Records) != 0 || e.Total != 0 {
		t.Fatal("empty merge not empty")
	}
}

// TestDisabledZeroAllocs pins the zero-cost-off contract: a nil logger,
// a level-filtered logger behind Enabled, and a nil shard buffer must
// all cost zero allocations per call at the call-site pattern the hot
// paths use.
func TestDisabledZeroAllocs(t *testing.T) {
	var nilLogger *Logger
	if n := testing.AllocsPerRun(100, func() {
		if nilLogger.Enabled(Warn) {
			nilLogger.Record(Record{Level: Warn, Stage: "phy/decode", Msg: "x", Seq: 1})
		}
	}); n != 0 {
		t.Fatalf("nil logger: %v allocs/op", n)
	}
	quiet := New(Error)
	if n := testing.AllocsPerRun(100, func() {
		if quiet.Enabled(Debug) {
			quiet.Record(Record{Level: Debug, Stage: "phy/decode", Msg: "x", Seq: 1})
		}
	}); n != 0 {
		t.Fatalf("level-filtered logger: %v allocs/op", n)
	}
	var nilBuf *Buffer
	if n := testing.AllocsPerRun(100, func() {
		if nilBuf.Enabled(Warn) {
			nilBuf.Record(Record{Level: Warn, Stage: "phy/hunt", Seq: -1})
		}
	}); n != 0 {
		t.Fatalf("nil buffer: %v allocs/op", n)
	}
	var armedBuf Buffer
	armedBuf.Arm(Error)
	if n := testing.AllocsPerRun(100, func() {
		if armedBuf.Enabled(Debug) {
			armedBuf.Record(Record{Level: Debug, Stage: "phy/hunt", Seq: -1})
		}
	}); n != 0 {
		t.Fatalf("level-filtered buffer: %v allocs/op", n)
	}
}

func TestLevelStrings(t *testing.T) {
	for _, lv := range []Level{Debug, Info, Warn, Error} {
		got, ok := ParseLevel(lv.String())
		if !ok || got != lv {
			t.Fatalf("ParseLevel(%q) = %v, %v", lv.String(), got, ok)
		}
	}
	if _, ok := ParseLevel("loud"); ok {
		t.Fatal("ParseLevel accepted garbage")
	}
	if Level(42).String() != "unknown" {
		t.Fatal("out-of-range level string")
	}
}

func TestConsoleFormat(t *testing.T) {
	var buf bytes.Buffer
	c := NewConsole(&buf, Info)
	c.Emit(Record{At: 0.001234, Level: Warn, Stage: "phy/decode", Msg: "preamble miss", Seq: 12,
		Scheme: "AMPPM", Dim: "0.5", Attrs: []Attr{{Key: "class", Value: "ser"}}})
	c.Emit(Record{At: 0, Level: Debug, Stage: "quiet", Seq: -1, Msg: "filtered"})
	c.Emit(Record{At: 2, Level: Error, Stage: "sim/slo", Shard: "rx1", Seq: -1, Msg: "critical"})
	want := "[   0.001234s] WARN  phy/decode seq=12: preamble miss (scheme=AMPPM dim=0.5 class=ser)\n" +
		"[   2.000000s] ERROR sim/slo rx1: critical\n"
	if buf.String() != want {
		t.Fatalf("console output:\n%q\nwant:\n%q", buf.String(), want)
	}
}

// FuzzParseNDJSON feeds arbitrary bytes to the NDJSON reader behind
// vlclog and flight-bundle log tails: whatever parses must re-export and
// re-parse to the same number of records.
func FuzzParseNDJSON(f *testing.F) {
	l := New(Debug)
	l.Record(Record{At: 0.25, Level: Warn, Stage: "phy/decode", Msg: "preamble miss", Seq: 3, Span: 7,
		Scheme: "AMPPM", Dim: "0.5", Attrs: []Attr{{Key: "class", Value: "ser"}}})
	l.Record(Record{At: 0.5, Level: Error, Stage: "sim/slo", Msg: "critical", Seq: -1})
	seed, err := l.Snapshot().NDJSON()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte("\n\n{}\n"))
	f.Add([]byte("{\"id\":1}\nnot json\n"))
	f.Fuzz(func(t *testing.T, b []byte) {
		snap, err := ParseNDJSON(bytes.NewReader(b))
		if err != nil {
			return
		}
		nd, err := snap.NDJSON()
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseNDJSON(bytes.NewReader(nd))
		if err != nil {
			t.Fatalf("re-parse of the export failed: %v\n%s", err, nd)
		}
		if len(back.Records) != len(snap.Records) {
			t.Fatalf("%d records re-parse as %d", len(snap.Records), len(back.Records))
		}
	})
}
