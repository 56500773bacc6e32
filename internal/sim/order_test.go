package sim

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"smartvlc/internal/light"
	"smartvlc/internal/optics"
	"smartvlc/internal/scheme"
	"smartvlc/internal/telemetry"
	"smartvlc/internal/telemetry/prof"
	"smartvlc/internal/telemetry/span"
	"smartvlc/internal/telemetry/vlog"
)

// instrumentedConfig builds a fully instrumented adaptive session —
// telemetry, spans, stage profiler, link health, debug logs, trace-driven
// dimming — with fresh collectors (they are stateful: one set per run).
func instrumentedConfig(t testing.TB, seed uint64) Config {
	cfg := DefaultConfig(amppmScheme(t))
	cfg.Seed = seed
	cfg.Trace = light.BlindPull{StartLux: 100, EndLux: 400, Duration: 0.4}
	cfg.Telemetry = telemetry.New()
	cfg.Spans = span.NewCollector()
	cfg.Prof = prof.New()
	cfg.Health = stepHealthConfig()
	cfg.Logs = vlog.New(vlog.Debug)
	return cfg
}

// snapshotBytes serializes the given snapshots as canonical JSON, in
// order, failing on a missing one.
func snapshotBytes(t testing.TB, snaps ...interface{ JSON() ([]byte, error) }) [][]byte {
	t.Helper()
	out := make([][]byte, 0, len(snaps))
	for i, j := range snaps {
		if reflect.ValueOf(j).IsNil() {
			t.Fatalf("instrumented run returned no snapshot %d", i)
		}
		b, err := j.JSON()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// sessionBytes serializes everything a session can observe beyond the
// Result struct — telemetry, spans, health, prof and log snapshots — and
// strips the snapshot pointers so the caller can DeepEqual the rest.
func sessionBytes(t testing.TB, res *Result) [][]byte {
	t.Helper()
	out := snapshotBytes(t, res.Telemetry, res.Spans, res.Health, res.Prof)
	out = append(out, logNDJSON(t, res.Logs))
	res.Telemetry, res.Spans, res.Health, res.Prof, res.Logs = nil, nil, nil, nil, nil
	return out
}

// broadcastBytes is sessionBytes for a broadcast result, per-receiver
// health snapshots included.
func broadcastBytes(t testing.TB, res *BroadcastResult) [][]byte {
	t.Helper()
	out := snapshotBytes(t, res.Telemetry, res.Spans, res.Health, res.Prof)
	out = append(out, logNDJSON(t, res.Logs))
	for i := range res.PerReceiver {
		out = append(out, snapshotBytes(t, res.PerReceiver[i].Health)...)
		res.PerReceiver[i].Health = nil
	}
	res.Telemetry, res.Spans, res.Health, res.Prof, res.Logs = nil, nil, nil, nil, nil
	return out
}

// equalBytes fails on the first snapshot that differs, naming its first
// differing line.
func equalBytes(t *testing.T, what string, want, got [][]byte) {
	t.Helper()
	for i := range want {
		if bytes.Equal(want[i], got[i]) {
			continue
		}
		w, g := bytes.Split(want[i], []byte("\n")), bytes.Split(got[i], []byte("\n"))
		for l := 0; l < len(w) && l < len(g); l++ {
			if !bytes.Equal(w[l], g[l]) {
				t.Fatalf("%s: snapshot %d diverges at line %d:\nwant %s\ngot  %s", what, i, l+1, w[l], g[l])
			}
		}
		t.Fatalf("%s: snapshot %d diverges in length: %d lines, want %d", what, i, len(g), len(w))
	}
}

// runOtherShapes runs sessions of a different shape from the ones under
// test — other schemes, payload, window, level and receiver count — so
// the process-global planning caches (select memo, threshold cache, codec
// and sample pools) hold entries no reference session created.
func runOtherShapes(t *testing.T) {
	t.Helper()
	cfg := DefaultConfig(scheme.NewOOKCT())
	cfg.Seed = 99
	cfg.PayloadBytes = 64
	cfg.Window = 4
	cfg.FixedLevel = 0.3
	cfg.Telemetry = telemetry.New()
	cfg.Logs = vlog.New(vlog.Debug)
	if _, err := Run(cfg, 0.2); err != nil {
		t.Fatal(err)
	}
	bc := BroadcastConfig{
		Config: DefaultConfig(scheme.NewVPPM()),
		Receivers: []ReceiverPose{
			{Geometry: optics.Aligned(1.5, 0)},
			{Geometry: optics.Aligned(3.0, 3)},
		},
	}
	bc.PayloadBytes = 96
	bc.FixedLevel = 0.7
	bc.Spans = span.NewCollector()
	if _, err := RunBroadcast(bc, 0.2); err != nil {
		t.Fatal(err)
	}
}

// The three tests below pin that a session's outcome is a function of
// its own config alone: running session A, then differently shaped
// sessions B, then A again yields a byte-identical result and telemetry,
// span, health, prof and log snapshots. Sessions build their own working
// state, so what they guard is everything sessions share: the
// process-global planning caches and buffer pools. Their names date from
// the warm session arena, whose reuse contract they first pinned.

// TestArenaRunByteIdentical is the single-receiver leg.
func TestArenaRunByteIdentical(t *testing.T) {
	ref, err := Run(instrumentedConfig(t, 7), 0.4)
	if err != nil {
		t.Fatal(err)
	}
	refSnaps := sessionBytes(t, &ref)
	if !bytes.Contains(refSnaps[4], []byte(`"stage":"sim/arena"`)) {
		t.Fatalf("log snapshot carries no scratch-growth records:\n%s", refSnaps[4])
	}
	runOtherShapes(t)
	got, err := Run(instrumentedConfig(t, 7), 0.4)
	if err != nil {
		t.Fatal(err)
	}
	equalBytes(t, "A after B", refSnaps, sessionBytes(t, &got))
	if !reflect.DeepEqual(ref, got) {
		t.Fatalf("A after B: result diverges:\nfirst: %+v\nagain: %+v", ref, got)
	}
}

// TestArenaBroadcastByteIdentical is the broadcast leg, across the
// (GOMAXPROCS, Workers) matrix.
func TestArenaBroadcastByteIdentical(t *testing.T) {
	mkCfg := func() BroadcastConfig {
		cfg := broadcastConfig(t,
			ReceiverPose{Geometry: optics.Aligned(1.5, 0)},
			ReceiverPose{Geometry: optics.Aligned(3.0, 3)},
			ReceiverPose{Geometry: optics.Aligned(3.3, 5)},
		)
		cfg.Trace = light.BlindPull{StartLux: 100, EndLux: 400, Duration: 0.3}
		cfg.Telemetry = telemetry.New()
		cfg.Spans = span.NewCollector()
		cfg.Prof = prof.New()
		cfg.Health = stepHealthConfig()
		cfg.Logs = vlog.New(vlog.Debug)
		return cfg
	}
	ref, err := RunBroadcast(mkCfg(), 0.3)
	if err != nil {
		t.Fatal(err)
	}
	refSnaps := broadcastBytes(t, &ref)
	runOtherShapes(t)
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, workers := range []int{1, 3, -1} {
			cfg := mkCfg()
			cfg.Workers = workers
			got, err := RunBroadcast(cfg, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			equalBytes(t, "broadcast A after B", refSnaps, broadcastBytes(t, &got))
			if !reflect.DeepEqual(ref, got) {
				t.Fatalf("GOMAXPROCS=%d workers=%d: result diverges", procs, workers)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestArenaFleetByteIdentical is the fleet leg: repeated RunFleet calls
// across the (GOMAXPROCS, workers) matrix.
func TestArenaFleetByteIdentical(t *testing.T) {
	run := func(workers int) (FleetResult, [][]byte) {
		fl, err := RunFleet(fleetConfigs(t, 6), 0.3, workers)
		if err != nil {
			t.Fatal(err)
		}
		snaps := snapshotBytes(t, fl.Telemetry)
		for i := range fl.Results {
			snaps = append(snaps, snapshotBytes(t, fl.Results[i].Telemetry)...)
			fl.Results[i].Telemetry = nil
		}
		return fl, snaps
	}
	ref, refSnaps := run(1)
	runOtherShapes(t)
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, workers := range []int{1, 3, -1} {
			got, gotSnaps := run(workers)
			equalBytes(t, "fleet after B", refSnaps, gotSnaps)
			if !reflect.DeepEqual(ref.Results, got.Results) {
				t.Fatalf("GOMAXPROCS=%d workers=%d: results diverge", procs, workers)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}
