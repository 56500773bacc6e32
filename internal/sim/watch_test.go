package sim

import (
	"bytes"
	"runtime"
	"testing"

	"smartvlc/internal/telemetry/agg"
)

// watchFleet builds n instrumented sessions wired into a fresh streaming
// aggregator with the given window, returning the configs and the
// aggregator they feed.
func watchFleet(t *testing.T, n int, window float64) ([]Config, *agg.Aggregator) {
	t.Helper()
	cfgs := fleetConfigs(t, n)
	a, err := agg.New(agg.Config{WindowSeconds: window, Factor: 2, K: 4}, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		f, err := a.Feed(agg.SessionMeta{
			Index:        i,
			Seed:         cfgs[i].Seed,
			Scheme:       cfgs[i].Scheme.Name(),
			PayloadBytes: cfgs[i].PayloadBytes,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfgs[i].Watch = f
	}
	return cfgs, a
}

// TestFleetWatchWorkerInvariant is the tentpole acceptance criterion:
// the live aggregate and top-K snapshot must be byte-identical across
// GOMAXPROCS {1,4} × workers {1,3,-1}.
func TestFleetWatchWorkerInvariant(t *testing.T) {
	run := func(workers int) []byte {
		cfgs, _ := watchFleet(t, 5, 0.05)
		fl, err := RunFleet(cfgs, 0.3, workers)
		if err != nil {
			t.Fatal(err)
		}
		if fl.Agg == nil {
			t.Fatal("fleet carried watch feeds but Agg snapshot is nil")
		}
		b, err := fl.Agg.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	ref := run(1)
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, workers := range []int{1, 3, -1} {
			if got := run(workers); !bytes.Equal(ref, got) {
				t.Fatalf("GOMAXPROCS=%d workers=%d: agg snapshot diverges:\n--- ref ---\n%s\n--- got ---\n%s",
					procs, workers, ref, got)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestFleetWatchSnapshotContents sanity-checks the live view reflects
// the run: sealed windows cover the duration, every session contributed,
// and the top tables are populated and ranked.
func TestFleetWatchSnapshotContents(t *testing.T) {
	cfgs, a := watchFleet(t, 3, 0.05)
	fl, err := RunFleet(cfgs, 0.3, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := fl.Agg
	if s.Sessions != 3 || s.Done != 3 {
		t.Fatalf("sessions %d done %d, want 3/3", s.Sessions, s.Done)
	}
	if s.SealedWindows < 5 {
		t.Fatalf("only %d sealed windows over a 0.3 s run with 0.05 s windows", s.SealedWindows)
	}
	var framesTx int64
	for _, p := range s.Series[0].Points {
		framesTx += p.FramesTx
	}
	var fleetTx int64
	for _, r := range fl.Results {
		fleetTx += int64(r.FramesSent)
	}
	if framesTx != fleetTx {
		t.Fatalf("aggregated frames_tx %d != fleet total %d", framesTx, fleetTx)
	}
	if len(s.TopSER) == 0 || len(s.TopBurn) == 0 {
		t.Fatalf("worst-sessions tables empty: ser=%d burn=%d", len(s.TopSER), len(s.TopBurn))
	}
	for i := 1; i < len(s.TopSER); i++ {
		a, b := s.TopSER[i-1], s.TopSER[i]
		if a.SER < b.SER || (a.SER == b.SER && a.Session > b.Session) {
			t.Fatalf("top-SER not ranked worst-first: %+v before %+v", a, b)
		}
	}
	// The final live snapshot matches the FleetResult one byte for byte.
	live, err := a.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	final, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live, final) {
		t.Fatal("post-run live snapshot differs from FleetResult.Agg")
	}
}

// TestWatchValidation covers the wiring error paths: Watch without
// Telemetry, a shared feed, and feeds from different aggregators.
func TestWatchValidation(t *testing.T) {
	cfgs, _ := watchFleet(t, 2, 0.05)
	cfgs[0].Telemetry = nil
	if _, err := RunFleet(cfgs, 0.1, 1); err == nil {
		t.Fatal("Watch without Telemetry accepted")
	}

	cfgs, _ = watchFleet(t, 2, 0.05)
	cfgs[1].Watch = cfgs[0].Watch
	if _, err := RunFleet(cfgs, 0.1, 1); err == nil {
		t.Fatal("shared watch feed accepted")
	}

	cfgs, _ = watchFleet(t, 2, 0.05)
	other, _ := watchFleet(t, 2, 0.05)
	cfgs[1].Watch = other[1].Watch
	if _, err := RunFleet(cfgs, 0.1, 1); err == nil {
		t.Fatal("feeds from different aggregators accepted")
	}

	// A single watched session through the serial Run path works too.
	cfgs, _ = watchFleet(t, 1, 0.05)
	res, err := Run(cfgs[0], 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Telemetry == nil {
		t.Fatal("watched session lost its telemetry snapshot")
	}
}

// TestWatchDoesNotPerturbSession pins that arming Watch changes nothing
// about the session physics or its telemetry snapshot.
func TestWatchDoesNotPerturbSession(t *testing.T) {
	plain := fleetConfigs(t, 1)[0]
	want, err := Run(plain, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	watched, _ := watchFleet(t, 1, 0.05)
	got, err := Run(watched[0], 0.3)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := want.Telemetry.JSON()
	b, _ := got.Telemetry.JSON()
	if !bytes.Equal(a, b) {
		t.Fatal("arming Watch changed the session telemetry snapshot")
	}
	if want.GoodputBps != got.GoodputBps || want.FramesSent != got.FramesSent {
		t.Fatalf("arming Watch changed session results: %+v vs %+v", got, want)
	}
}
