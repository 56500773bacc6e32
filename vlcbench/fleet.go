package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"smartvlc/internal/amppm"
	"smartvlc/internal/light"
	"smartvlc/internal/optics"
	"smartvlc/internal/scheme"
	"smartvlc/internal/sim"
	"smartvlc/internal/telemetry"
	"smartvlc/internal/telemetry/agg"
	"smartvlc/internal/telemetry/flight"
	"smartvlc/internal/telemetry/health"
	"smartvlc/internal/telemetry/prof"
	"smartvlc/internal/telemetry/span"
	"smartvlc/internal/telemetry/vlog"
)

// fleet_observed runs the operator's fleet: sim.RunFleet on nproc workers
// over a seeded session mix with every observability pillar armed, then
// exports each artifact and parses it back.
const (
	fleetSessions = 64
	fleetSeconds  = 0.5 // simulated air time per session
	// fleetMaxBundles caps each session's flight recorder.
	fleetMaxBundles = 1
	// fleetSimRuns fleets, each with its own session seeds over the same
	// mix, make up the simulated outcome (frame loss, goodput).
	fleetSimRuns = 16
)

// fleetSession is one session of the seeded mix, before pillars are
// attached.
type fleetSession struct {
	cfg   sim.Config
	ideal float64 // the scheme's ideal PHY rate over the session's levels, kbps
}

// fleetSetup is the workload's set-up: the four schemes and the mix.
type fleetSetup struct {
	sessions []fleetSession
	mix      map[string]int
}

// newFleetSetup draws the session mix. Each scheme gets a quarter of the
// sessions; levels and payload sizes (16–512 B, log-stratified) are
// stratified per scheme with seeded offsets, distances (1 m to the 3.6 m
// bright-ambient corner) are stratified over floor area, as receivers
// spread uniformly over a cell are, and every fourth session of each
// scheme follows an ambient trace (blind pull or clouds) instead of a
// fixed level.
func newFleetSetup(seed uint64) (*fleetSetup, error) {
	a, err := scheme.NewAMPPM(amppm.DefaultConstraints())
	if err != nil {
		return nil, err
	}
	m, err := scheme.NewMPPM(20)
	if err != nil {
		return nil, err
	}
	schemes := []scheme.Scheme{a, m, scheme.NewOOKCT(), scheme.NewVPPM()}
	rng := rand.New(rand.NewPCG(seed, 0xF1EE7))
	fs := &fleetSetup{mix: map[string]int{}}
	per := fleetSessions / len(schemes)
	for si, s := range schemes {
		lo, hi := s.LevelRange()
		lo, hi = max(lo, 0.1), min(hi, 0.9)
		// Fixed, scrambled stratum orders pair level, payload and distance
		// the same way for every seed (a Latin hypercube); the seed moves
		// each point within its stratum and draws the channel noise. So
		// seeds differ in their inputs but not in their mix.
		pair := rand.New(rand.NewPCG(0x1A71, uint64(si)))
		lvl, pay, dist := pair.Perm(per), pair.Perm(per), pair.Perm(per)
		for k := 0; k < per; k++ {
			strat := func(p []int) float64 { return (float64(p[k]) + rng.Float64()) / float64(per) }
			cfg := sim.DefaultConfig(s)
			cfg.Seed = seed*1_000_003 + uint64(si*per+k) // build adds the run's offset
			cfg.FixedLevel = lo + (hi-lo)*strat(lvl)
			cfg.PayloadBytes = int(math.Round(16 * math.Pow(32, strat(pay))))
			d := 1.0 + 2.6*math.Sqrt(strat(dist))
			cfg.Geometry = optics.Aligned(d, 0)
			if d > 3.3 {
				cfg.AmbientLux = 9700 // the bright-ambient calibration corner
			}
			kind := "fixed"
			if k%4 == 3 {
				if k%8 == 3 {
					cfg.Trace = light.BlindPull{StartLux: 50, EndLux: 450, Duration: fleetSeconds, WobbleFraction: 0.05}
					kind = "blind_pull"
				} else {
					cfg.Trace = light.Clouds{BaseLux: 260, DipFraction: 0.6, PeriodSeconds: 0.2}
					kind = "clouds"
				}
			}
			fs.sessions = append(fs.sessions, fleetSession{cfg: cfg})
			fs.mix[s.Name()+"/"+kind]++
		}
	}
	return fs, nil
}

// setIdeals fills in each session's ideal PHY rate for the goodput
// check: the scheme's rate at a fixed-level session's level, or its best
// over the scheme's range for a trace-driven session. It is the check's
// preparation, not the program's set-up, so it runs after setup_s is
// timed.
func (fs *fleetSetup) setIdeals() error {
	best := map[string]float64{}
	for i := range fs.sessions {
		s := &fs.sessions[i]
		sch := s.cfg.Scheme
		if s.cfg.Trace == nil {
			k, err := idealKbps(sch, s.cfg.FixedLevel)
			if err != nil {
				return err
			}
			s.ideal = k
			continue
		}
		if _, ok := best[sch.Name()]; !ok {
			lo, hi := sch.LevelRange()
			for l := lo; l <= hi; l += 0.01 {
				if k, err := idealKbps(sch, l); err == nil {
					best[sch.Name()] = max(best[sch.Name()], k)
				}
			}
		}
		if s.ideal = best[sch.Name()]; s.ideal == 0 {
			return fmt.Errorf("%s: no supported level", sch.Name())
		}
	}
	return nil
}

// armed selects the pillars a fleet run attaches.
type armed map[string]bool

func allPillars() armed {
	a := armed{}
	for _, p := range pillars {
		a[p] = true
	}
	return a
}

// fleetRun is one fleet: configs with fresh pillars attached.
type fleetRun struct {
	cfgs      []sim.Config
	recorders []*flight.Recorder
}

// build attaches fresh pillars (they are stateful, so every fleet gets its
// own). The agg pillar needs telemetry: its feeds stream registry deltas.
func (fs *fleetSetup) build(on armed, dir string, run int) (*fleetRun, error) {
	fr := &fleetRun{}
	var fa *agg.Aggregator
	if on["agg"] {
		var err error
		if fa, err = agg.New(agg.Config{}, len(fs.sessions)); err != nil {
			return nil, err
		}
	}
	var hc *health.Config
	if on["health"] {
		hc = &health.Config{}
	}
	for i, s := range fs.sessions {
		cfg := s.cfg
		cfg.Seed += uint64(run) * fleetSessions
		if on["telemetry"] || on["agg"] {
			cfg.Telemetry = telemetry.New()
		}
		if on["span"] {
			cfg.Spans = span.NewCollector()
		}
		if on["flight"] {
			rec, err := flight.New(flight.Config{Dir: flightDir(dir, i), MaxBundles: fleetMaxBundles})
			if err != nil {
				return nil, err
			}
			cfg.Flight = rec
			fr.recorders = append(fr.recorders, rec)
		}
		if on["prof"] {
			cfg.Prof = prof.New()
		}
		if on["vlog"] {
			cfg.Logs = vlog.New(vlog.Info)
		}
		cfg.Health = hc
		if fa != nil {
			feed, err := fa.Feed(agg.SessionMeta{
				Index: i, Seed: cfg.Seed, Scheme: cfg.Scheme.Name(), PayloadBytes: cfg.PayloadBytes,
			})
			if err != nil {
				return nil, err
			}
			cfg.Watch = feed
		}
		fr.cfgs = append(fr.cfgs, cfg)
	}
	return fr, nil
}

// flightDir is session i's flight bundle directory under dir.
func flightDir(dir string, i int) string { return filepath.Join(dir, "s"+strconv.Itoa(i)) }

// exportCheck is one pillar's export-and-parse round trip: it returns an
// error when the artifact does not parse back through the pillar's
// public reader into what was exported.
func exportCheck(p string, fl sim.FleetResult, fr *fleetRun) error {
	switch p {
	case "telemetry":
		b, err := fl.Telemetry.JSON()
		if err != nil {
			return err
		}
		back, err := telemetry.ParseSnapshot(b)
		if err != nil {
			return err
		}
		return sameJSON(back.JSON, b)
	case "span":
		for i, r := range fl.Results {
			var buf bytes.Buffer
			if err := r.Spans.WriteChromeTrace(&buf); err != nil {
				return err
			}
			back, err := span.ReadChromeTrace(&buf)
			if err != nil {
				return err
			}
			if len(back.Spans) != len(r.Spans.Spans) {
				return fmt.Errorf("session %d: %d spans read back, %d written", i, len(back.Spans), len(r.Spans.Spans))
			}
		}
	case "flight":
		for _, rec := range fr.recorders {
			for _, dir := range rec.Bundles() {
				b, err := flight.ReadBundle(dir)
				if err != nil {
					return err
				}
				if len(b.Captures) == 0 {
					return fmt.Errorf("bundle %s has no captures", dir)
				}
			}
		}
	case "prof":
		b, err := fl.Prof.JSON()
		if err != nil {
			return err
		}
		back, err := prof.ParseSnapshot(b)
		if err != nil {
			return err
		}
		return sameJSON(back.JSON, b)
	case "vlog":
		b, err := fl.Logs.NDJSON()
		if err != nil {
			return err
		}
		back, err := vlog.ParseNDJSON(bytes.NewReader(b))
		if err != nil {
			return err
		}
		if len(back.Records) != len(fl.Logs.Records) {
			return fmt.Errorf("%d log records read back, %d written", len(back.Records), len(fl.Logs.Records))
		}
	case "health":
		b, err := fl.Health.JSON()
		if err != nil {
			return err
		}
		back, err := health.ReadSnapshot(bytes.NewReader(b))
		if err != nil {
			return err
		}
		return sameJSON(back.JSON, b)
	case "agg":
		b, err := fl.Agg.JSON()
		if err != nil {
			return err
		}
		back, err := agg.ReadSnapshot(bytes.NewReader(b))
		if err != nil {
			return err
		}
		return sameJSON(back.JSON, b)
	}
	return nil
}

// sameJSON re-exports a parsed artifact and compares it with the bytes it
// was parsed from.
func sameJSON(export func() ([]byte, error), want []byte) error {
	got, err := export()
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("re-export differs from the artifact (%d vs %d bytes)", len(got), len(want))
	}
	return nil
}

// fleetOutcome is one fleet run's measurements.
type fleetOutcome struct {
	// cpu is the process's CPU time over the fleet and its exports;
	// exportBy splits the exports' share by pillar. wall is the fleet's
	// wall time alone.
	cpu, wall    time.Duration
	exportBy     map[string]time.Duration
	frames, lost int
	goodput      []float64 // per session, kbps
	mallocs      uint64
	bytes        uint64
	gcCycles     uint32
	gcPause      time.Duration
	dropped      int64
	failures
}

// runFleet runs one fleet on the given workers with the given pillars and
// the session seeds of the given run and, when export is set, round-trips
// every armed pillar's artifact. Spans go under parent, numbered op.
func (fs *fleetSetup) runFleet(on armed, run, workers int, export bool, tr *tracer, parent int32, op int64) (fleetOutcome, error) {
	out := fleetOutcome{exportBy: map[string]time.Duration{}}
	dir, err := os.MkdirTemp(scratchDir, "flight-")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(dir)
	fr, err := fs.build(on, dir, run)
	if err != nil {
		return out, err
	}
	var ms0, ms1 runtime.MemStats
	if tr != nil {
		// Start every traced fleet from the same heap: two collections empty
		// the sync.Pools the PHY recycles buffers through, victim caches
		// included. The ablation runs with the collector paused (see
		// traced), so the pools are not flushed mid-fleet either, and the
		// allocation deltas compare like with like.
		runtime.GC()
		runtime.GC()
	}
	runtime.ReadMemStats(&ms0)
	s := tr.begin("sim.RunFleet", parent, op)
	t0, c0 := time.Now(), processCPU()
	fl, err := sim.RunFleet(fr.cfgs, fleetSeconds, workers)
	out.wall = time.Since(t0)
	tr.end(s)
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return out, err
	}
	out.mallocs, out.bytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
	out.gcCycles, out.gcPause = ms1.NumGC-ms0.NumGC, time.Duration(ms1.PauseTotalNs-ms0.PauseTotalNs)
	for i, r := range fl.Results {
		out.frames += r.FramesSent
		out.lost += r.FramesSent - r.FramesOK
		kbps := r.GoodputBps / 1e3
		out.goodput = append(out.goodput, kbps)
		if math.IsNaN(kbps) || kbps < 0 || kbps > fs.sessions[i].ideal {
			out.fail(fmt.Sprintf("session %d (%s): goodput %v kbps outside [0, ideal %v]",
				i, fr.cfgs[i].Scheme.Name(), kbps, fs.sessions[i].ideal))
		}
		if r.Spans != nil {
			out.dropped += r.Spans.Dropped
		}
	}
	if fl.Logs != nil {
		out.dropped += fl.Logs.Dropped
	}
	if fl.Agg != nil {
		for _, sr := range fl.Agg.Series {
			out.dropped += sr.Dropped
		}
	}
	for _, rec := range fr.recorders {
		out.dropped += rec.Triggers() - int64(len(rec.Bundles()))
	}
	if !export {
		out.cpu = processCPU() - c0
		return out, nil
	}
	for _, p := range pillars {
		if !on[p] {
			continue
		}
		s := tr.begin("export."+p, parent, op)
		tp := processCPU()
		if err := exportCheck(p, fl, fr); err != nil {
			out.fail(fmt.Sprintf("%s export: %v", p, err))
		}
		out.exportBy[p] = processCPU() - tp
		tr.end(s)
	}
	out.cpu = processCPU() - c0
	return out, nil
}

func runFleetObserved(o runOpts) (*outcome, error) {
	fs, err := newFleetSetup(o.seed)
	if err != nil {
		return nil, err
	}
	if err := fs.setIdeals(); err != nil {
		return nil, err
	}
	out := newOutcome()
	out.params = map[string]any{
		"sessions": fleetSessions, "session_seconds": fleetSeconds, "workers": runtime.NumCPU(),
		"mix": fs.mix, "payload_bytes": "16-512 log-stratified", "distance_m": "1.0-3.6 stratified over floor area",
		"pillars": pillars, "flight_max_bundles": fleetMaxBundles,
	}
	if o.trace {
		return fs.traced(o, out)
	}
	// Fleet 0 warms the process (codec tables, pools, heap size) and is
	// not timed. The simulated outcome pools fleets 0..fleetSimRuns-1, so
	// it is exact for a seed.
	var frames, lost int
	var goodput, cpus, walls, rates []float64
	deadline := time.Now()
	for r := 0; r < fleetSimRuns || time.Now().Before(deadline); r++ {
		f, err := fs.runFleet(allPillars(), r, runtime.NumCPU(), true, nil, -1, 0)
		if err != nil {
			return nil, err
		}
		out.attempted += fleetSessions + len(pillars)
		out.failures.add(f.failures)
		if r < fleetSimRuns {
			frames += f.frames
			lost += f.lost
			goodput = append(goodput, f.goodput...)
		}
		if r == 0 {
			deadline = time.Now().Add(o.duration())
			continue
		}
		cpu := f.cpu.Seconds()
		cpus = append(cpus, cpu)
		walls = append(walls, f.wall.Seconds())
		rates = append(rates, float64(f.frames)/cpu)
	}
	setupS, err := childSetup(wFleet, o)
	if err != nil {
		return nil, err
	}
	frameUs := make([]float64, len(rates))
	for i, r := range rates {
		frameUs[i] = 1e6 / r
	}
	out.series["fleet_cpu_s"] = cpus
	out.series["fleet_wall_s"] = walls
	out.e2e["setup_s"] = setupS
	out.e2e["figures_s"] = median(cpus)
	out.e2e["frames_per_s"] = median(rates)
	out.e2e["frame_us_p50"] = percentile(frameUs, 50)
	out.e2e["frame_us_p99"] = percentile(frameUs, 99)
	out.e2e["frame_loss"] = float64(lost) / float64(frames)
	out.e2e["sim_speed"] = fleetSessions * fleetSeconds / median(cpus)
	out.e2e["goodput_kbps"] = mean(goodput)
	return out, nil
}

// traced is the per-layer run. Each round runs the pillar ablation (bare,
// each pillar alone, all) for the allocation costs, a bare and an
// all-pillar fleet on nproc workers for the parallel efficiency and the
// export round trips, and every session alone for the per-session costs.
func (fs *fleetSetup) traced(o runOpts, out *outcome) (*outcome, error) {
	// A warm-up fleet, all pillars armed, under the default collector: its
	// GC work and drop counts are the runtime.* and observer.dropped
	// reports.
	first, err := fs.runFleet(allPillars(), 0, runtime.NumCPU(), true, nil, -1, 0)
	if err != nil {
		return nil, err
	}
	out.attempted += fleetSessions + len(pillars)
	out.failures.add(first.failures)
	// The rest runs with the collector paused, and the ablation on one
	// worker and one P: a collection flushes the PHY's buffer pools, and a
	// worker moving between Ps strands buffers in the other P's pool;
	// either adds tens of kilobytes per session at random to the pillar
	// costs. Each fleet starts from a collected heap (runFleet), so memory
	// stays bounded by one all-pillar fleet.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	tr := newTracer(processCPU)
	out.tr = tr
	variants := append(append([]string{"bare"}, pillars...), "all")
	ablation := map[string][]fleetOutcome{}
	var bareWall, sessionMs, serialTotal []float64
	var exports []fleetOutcome
	record := func(f fleetOutcome) {
		out.attempted += fleetSessions
		out.failures.add(f.failures)
	}
	deadline := time.Now().Add(o.duration())
	for round := int64(0); round < 1 || time.Now().Before(deadline); round++ {
		prev := runtime.GOMAXPROCS(1)
		for _, v := range variants {
			on := armed{}
			switch v {
			case "all":
				on = allPillars()
			case "agg":
				on = armed{"agg": true, "telemetry": true}
			case "bare":
			default:
				on[v] = true
			}
			root := tr.begin("ablation."+v, -1, round)
			f, err := fs.runFleet(on, 0, 1, false, tr, root, round)
			tr.end(root)
			if err != nil {
				runtime.GOMAXPROCS(prev)
				return nil, err
			}
			record(f)
			// The pillars observe the simulation; they must not change it.
			// Every fleet of the run uses the same session seeds.
			if v != "bare" {
				bare := ablation["bare"][0].goodput
				for i, g := range f.goodput {
					if g != bare[i] {
						out.failures.fail(fmt.Sprintf("%s: session %d goodput %v kbps, bare %v", v, i, g, bare[i]))
					}
				}
			}
			ablation[v] = append(ablation[v], f)
		}
		runtime.GOMAXPROCS(prev)

		root := tr.begin("fleet.bare", -1, round)
		f, err := fs.runFleet(armed{}, 0, runtime.NumCPU(), false, tr, root, round)
		tr.end(root)
		if err != nil {
			return nil, err
		}
		record(f)
		bareWall = append(bareWall, f.wall.Seconds())
		root = tr.begin("fleet.all", -1, round)
		f, err = fs.runFleet(allPillars(), 0, runtime.NumCPU(), true, tr, root, round)
		tr.end(root)
		if err != nil {
			return nil, err
		}
		record(f)
		out.attempted += len(pillars)
		exports = append(exports, f)

		// Each session alone, bare and serial.
		total := 0.0
		for i, s := range fs.sessions {
			sp := tr.begin("sim.Run", -1, int64(i))
			t0, c0 := time.Now(), processCPU()
			_, err := sim.Run(s.cfg, fleetSeconds)
			d, cpu := time.Since(t0).Seconds(), (processCPU() - c0).Seconds()
			tr.end(sp)
			out.attempted++
			if err != nil {
				out.failures.fail(fmt.Sprintf("session %d: %v", i, err))
			}
			sessionMs = append(sessionMs, cpu*1e3)
			total += d
		}
		serialTotal = append(serialTotal, total)
	}

	medianOf := func(fs []fleetOutcome, f func(fleetOutcome) float64) float64 {
		xs := make([]float64, len(fs))
		for i, x := range fs {
			xs[i] = f(x)
		}
		return median(xs)
	}
	bytesPer := func(v string) float64 {
		return medianOf(ablation[v], func(f fleetOutcome) float64 { return float64(f.bytes) }) / fleetSessions
	}
	allocsPer := func(v string) float64 {
		return medianOf(ablation[v], func(f fleetOutcome) float64 { return float64(f.mallocs) }) / fleetSessions
	}
	l := out.layer
	for _, p := range pillars {
		base := "bare"
		if p == "agg" {
			base = "telemetry" // agg streams telemetry deltas, so it is costed on top of telemetry
		}
		l[p+".bytes_per_session"] = bytesPer(p) - bytesPer(base)
		l[p+".allocs_per_session"] = allocsPer(p) - allocsPer(base)
		l[p+".export_ms"] = medianOf(exports, func(f fleetOutcome) float64 { return f.exportBy[p].Seconds() * 1e3 })
	}
	l["sim.bytes_per_session"] = bytesPer("bare")
	l["sim.allocs_per_session"] = allocsPer("bare")
	l["sim.session_ms_p50"] = percentile(sessionMs, 50)
	l["sim.session_ms_p99"] = percentile(sessionMs, 99)
	l["parallel.efficiency"] = median(serialTotal) / (float64(runtime.NumCPU()) * median(bareWall))
	l["runtime.gc_cycles"] = float64(first.gcCycles)
	l["runtime.gc_pause_ms"] = first.gcPause.Seconds() * 1e3
	l["observer.dropped"] = float64(first.dropped)
	out.series["session_ms"] = sessionMs
	out.series["bare_fleet_s"] = bareWall
	return out, nil
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
