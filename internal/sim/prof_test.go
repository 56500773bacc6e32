package sim

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"smartvlc/internal/telemetry"
	"smartvlc/internal/telemetry/prof"
)

// TestRunProfDeterministic: two armed runs of the same seed produce
// byte-identical stage profiles, and the profile covers every pipeline
// stage the session exercises.
func TestRunProfDeterministic(t *testing.T) {
	s := amppmScheme(t)
	run := func() []byte {
		cfg := DefaultConfig(s)
		cfg.FixedLevel = 0.5
		cfg.Prof = prof.New()
		res, err := Run(cfg, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		if res.Prof == nil {
			t.Fatal("armed run returned no profile")
		}
		j, err := res.Prof.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("profiles diverge across identical runs:\n%s\nvs\n%s", a, b)
	}
	for _, stage := range []string{"sim.frame", "phy.tx", "phy.hunt", "phy.decode", "mac.frame"} {
		if !strings.Contains(string(a), `"stage": "`+stage+`"`) {
			t.Fatalf("profile missing stage %q:\n%s", stage, a)
		}
	}
	// Stage totals must also ride the telemetry registry as prof_*_total
	// counters so telemetry.Merge carries them fleet-wide.
	cfg := DefaultConfig(s)
	cfg.FixedLevel = 0.5
	cfg.Prof = prof.New()
	cfg.Telemetry = telemetry.New()
	res, err := Run(cfg, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	tj, err := res.Telemetry.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(tj), "prof_slots_total") {
		t.Fatalf("telemetry snapshot missing mirrored prof counters:\n%s", tj)
	}
}

// TestRunExemplarsRecorded: an instrumented run attaches deterministic
// exemplars to the airtime and ACK-latency histograms, and repeat runs
// produce byte-identical snapshots including those exemplars.
func TestRunExemplarsRecorded(t *testing.T) {
	run := func(t *testing.T) []byte {
		cfg := DefaultConfig(amppmScheme(t))
		cfg.FixedLevel = 0.5
		cfg.Telemetry = telemetry.New()
		res, err := Run(cfg, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		j, err := res.Telemetry.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	a, b := run(t), run(t)
	if !bytes.Equal(a, b) {
		t.Fatal("telemetry with exemplars diverges across identical runs")
	}
	if !strings.Contains(string(a), `"exemplars"`) {
		t.Fatalf("snapshot carries no exemplars:\n%s", a)
	}
}

// TestBroadcastProfWorkerInvariance: the per-receiver fan-out records
// stage costs from concurrent goroutines, yet the profile and the
// exemplar-bearing telemetry snapshot must stay byte-identical for every
// worker count, at GOMAXPROCS 1 and 4 alike. Receiver-side stages carry
// "rx<i>" shards.
func TestBroadcastProfWorkerInvariance(t *testing.T) {
	s := amppmScheme(t)
	run := func(workers int) (profJSON, telJSON []byte) {
		cfg := BroadcastConfig{Config: DefaultConfig(s), Workers: workers}
		cfg.FixedLevel = 0.5
		cfg.Prof = prof.New()
		cfg.Telemetry = telemetry.New()
		base := cfg.Geometry
		cfg.Receivers = []ReceiverPose{
			{Geometry: base},
			{Geometry: base, AmbientScale: 1.3},
			{Geometry: base, AmbientScale: 0.8},
		}
		res, err := RunBroadcast(cfg, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		if res.Prof == nil {
			t.Fatal("armed broadcast returned no profile")
		}
		pj, err := res.Prof.JSON()
		if err != nil {
			t.Fatal(err)
		}
		tj, err := res.Telemetry.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return pj, tj
	}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		refProf, refTel := run(1)
		for _, workers := range []int{3, -1} {
			gotProf, gotTel := run(workers)
			if !bytes.Equal(refProf, gotProf) {
				t.Fatalf("GOMAXPROCS=%d workers=%d: profile diverges:\n--- serial ---\n%s\n--- parallel ---\n%s",
					procs, workers, refProf, gotProf)
			}
			if !bytes.Equal(refTel, gotTel) {
				t.Fatalf("GOMAXPROCS=%d workers=%d: telemetry diverges", procs, workers)
			}
		}
		runtime.GOMAXPROCS(prev)
		for _, shard := range []string{"rx0", "rx1", "rx2"} {
			if !strings.Contains(string(refProf), `"shard": "`+shard+`"`) {
				t.Fatalf("profile missing receiver shard %q:\n%s", shard, refProf)
			}
		}
	}
}

// benchSession times one 0.1 s session with the stage profiler off or
// armed, so the profiler's hot-path price can be measured with plain
// `go test -bench`; TestSessionAllocCeilings pins the same session's
// allocations.
func benchSession(b *testing.B, armed bool) {
	s := amppmScheme(b)
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig(s)
		cfg.FixedLevel = 0.5
		cfg.Seed = uint64(i + 1)
		if armed {
			cfg.Prof = prof.New()
		}
		res, err := Run(cfg, 0.1)
		if err != nil {
			b.Fatal(err)
		}
		if res.FramesOK == 0 {
			b.Fatal("no frames delivered")
		}
	}
}

func BenchmarkSessionFrames(b *testing.B)     { benchSession(b, false) }
func BenchmarkSessionFramesProf(b *testing.B) { benchSession(b, true) }

// TestFleetProfMerge: per-session profilers merge in config order into
// FleetResult.Prof, and a profiler shared between configs is rejected
// like a shared registry.
func TestFleetProfMerge(t *testing.T) {
	cfgs := fleetConfigs(t, 3)
	for i := range cfgs {
		cfgs[i].Prof = prof.New()
	}
	fl, err := RunFleet(cfgs, 0.3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if fl.Prof == nil {
		t.Fatal("fleet with armed sessions produced no merged profile")
	}
	var total int64
	for _, r := range fl.Results {
		if r.Prof == nil {
			t.Fatal("armed session lost its profile")
		}
		for _, s := range r.Prof.Series {
			total += s.Counts.Ops
		}
	}
	var merged int64
	for _, s := range fl.Prof.Series {
		merged += s.Counts.Ops
	}
	if total == 0 || merged != total {
		t.Fatalf("merged ops %d != sum of per-session ops %d", merged, total)
	}

	cfgs = fleetConfigs(t, 2)
	shared := prof.New()
	cfgs[0].Prof, cfgs[1].Prof = shared, shared
	if _, err := RunFleet(cfgs, 0.3, 1); err == nil {
		t.Fatal("shared profiler accepted")
	}
}
