package sim

import (
	"runtime/debug"
	"testing"

	"smartvlc/internal/scheme"
	"smartvlc/internal/telemetry"
	"smartvlc/internal/telemetry/agg"
	"smartvlc/internal/telemetry/health"
	"smartvlc/internal/telemetry/prof"
	"smartvlc/internal/telemetry/vlog"
)

// Allocation ceilings per operation: one 0.1 s AMPPM session at level 0.5
// (seed advancing per run), or an 8-session fleet of them on one worker.
// The counts are exact and repeat run to run with the GC off, so each
// ceiling is the measured count itself: any new per-frame allocation on
// the session path, or in an armed pillar, fails its test. Lower a ceiling
// when the code gets leaner; never raise one to make a change pass.
const (
	sessionAllocCeiling        = 53
	healthSessionAllocCeiling  = 86
	profSessionAllocCeiling    = 81
	vlogSessionAllocCeiling    = 136
	fleetAllocCeiling          = 433
	telemetryFleetAllocCeiling = 2179
	aggFleetAllocCeiling       = 2324
)

// checkAllocCeiling measures body with the GC off, so a background cycle
// cannot empty the pools mid-run and move the count, and fails when it
// allocates more per run than ceiling.
func checkAllocCeiling(t *testing.T, runs int, ceiling float64, body func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("race instrumentation allocates; sync.Pool drops items")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	n := testing.AllocsPerRun(runs, body)
	t.Logf("%v allocs/op, ceiling %v", n, ceiling)
	if n > ceiling {
		t.Errorf("%v allocs/op exceeds the ceiling of %v", n, ceiling)
	}
}

// sessionBody runs one 0.1 s session per call, with arm adding the
// pillar under test to the default config. arm takes and returns the
// config by value: a pointer would move it to the heap and count one
// allocation the session itself does not make.
func sessionBody(t *testing.T, s scheme.Scheme, arm func(Config) Config) func() {
	seed := uint64(0)
	return func() {
		seed++
		cfg := DefaultConfig(s)
		cfg.FixedLevel = 0.5
		cfg.Seed = seed
		res, err := Run(arm(cfg), 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if res.FramesOK == 0 {
			t.Fatal("no frames delivered")
		}
	}
}

// ceilingFleet is the 8-session fleet the fleet ceilings measure.
func ceilingFleet(s scheme.Scheme, telemetryArmed bool) []Config {
	cfgs := make([]Config, 8)
	for j := range cfgs {
		cfgs[j] = DefaultConfig(s)
		cfgs[j].FixedLevel = 0.5
		cfgs[j].Seed = uint64(j + 1)
		if telemetryArmed {
			cfgs[j].Telemetry = telemetry.New()
		}
	}
	return cfgs
}

func runFleet(t *testing.T, cfgs []Config) FleetResult {
	fl, err := RunFleet(cfgs, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(fl.Results) != len(cfgs) {
		t.Fatalf("fleet returned %d sessions", len(fl.Results))
	}
	return fl
}

func TestSessionAllocCeilings(t *testing.T) {
	s := amppmScheme(t)
	cases := []struct {
		name    string
		ceiling float64
		arm     func(Config) Config
	}{
		{"nil", sessionAllocCeiling, func(c Config) Config { return c }},
		{"health", healthSessionAllocCeiling, func(c Config) Config {
			c.Health = &health.Config{Objectives: health.DefaultObjectives()}
			return c
		}},
		{"prof", profSessionAllocCeiling, func(c Config) Config { c.Prof = prof.New(); return c }},
		{"vlog", vlogSessionAllocCeiling, func(c Config) Config { c.Logs = vlog.New(vlog.Debug); return c }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkAllocCeiling(t, 10, tc.ceiling, sessionBody(t, s, tc.arm))
		})
	}
}

func TestFleetAllocCeilings(t *testing.T) {
	s := amppmScheme(t)
	t.Run("nil", func(t *testing.T) {
		checkAllocCeiling(t, 5, fleetAllocCeiling, func() { runFleet(t, ceilingFleet(s, false)) })
	})
	t.Run("telemetry", func(t *testing.T) {
		checkAllocCeiling(t, 5, telemetryFleetAllocCeiling, func() { runFleet(t, ceilingFleet(s, true)) })
	})
	t.Run("agg", func(t *testing.T) {
		checkAllocCeiling(t, 5, aggFleetAllocCeiling, func() {
			cfgs := ceilingFleet(s, true)
			fa, err := agg.New(agg.Config{WindowSeconds: 0.02}, len(cfgs))
			if err != nil {
				t.Fatal(err)
			}
			for j := range cfgs {
				feed, err := fa.Feed(agg.SessionMeta{
					Index: j, Seed: cfgs[j].Seed, Scheme: s.Name(), PayloadBytes: cfgs[j].PayloadBytes,
				})
				if err != nil {
					t.Fatal(err)
				}
				cfgs[j].Watch = feed
			}
			if fl := runFleet(t, cfgs); fl.Agg == nil || fl.Agg.SealedWindows == 0 {
				t.Fatal("fleet aggregation sealed no windows")
			}
		})
	})
}
