package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"smartvlc/internal/experiments"
	"smartvlc/internal/optics"
	"smartvlc/internal/photon"
	"smartvlc/internal/scheme"
	"smartvlc/internal/sim"
	"smartvlc/internal/stats"
)

// figures regenerates the paper's evaluation through internal/experiments
// at reduced air time, sized so that no single figure dominates a repeat.
const (
	figSecondsPerPoint = 0.2     // simulated air time per Fig. 15–17 point
	figFig19Seconds    = 6.0     // blind-pull duration (paper: 67 s)
	figMCSymbols       = 100_000 // Fig. 4 Monte-Carlo symbols per pattern
	// figMCSlotsPerSymbol is Σ N over the Monte-Carlo patterns
	// (10 + 20 + 30 + 50): Poisson draws per symbol budget unit.
	figMCSlotsPerSymbol = 110
	// Sweep sizes of experiments.Fig15/16/17: levels × schemes,
	// distances × levels, angles × distances.
	figPoints15, figPoints16, figPoints17 = 17 * 3, 19 * 3, 9 * 3
)

// figBench is the figures set-up: the evaluation's schemes (so the
// checks know each scheme's ideal PHY rate) and the seeded experiment
// seeds.
type figBench struct {
	amppm            *scheme.AMPPM
	ookct            *scheme.OOKCT
	mppm             *scheme.MPPM
	linkSeed, mcSeed uint64
	fig19Seed        uint64
}

func newFigBench(seed uint64) (*figBench, error) {
	a, o, m, err := experiments.Schemes()
	if err != nil {
		return nil, err
	}
	// The Monte-Carlo's channel is built here too, so a set-up regression
	// in the link budget shows in setup_s.
	if _, err := photon.DefaultLinkBudget().ChannelAt(optics.Aligned(3.6, 0), 9700); err != nil {
		return nil, err
	}
	return &figBench{amppm: a, ookct: o, mppm: m,
		linkSeed: seed, mcSeed: seed*7919 + 1, fig19Seed: seed + 100}, nil
}

// figRepeat is one regeneration of the figure set.
type figRepeat struct {
	// cpu is the process's CPU time over the repeat, and parts splits it
	// by figure.
	cpu, wall              time.Duration
	parts                  map[string]time.Duration
	frames                 int64
	codecHits, codecMisses int64
	failures
	points            int
	amppmKbps         float64 // mean AMPPM goodput over the Fig. 15 levels
	mcErrs, mcSymbols int
	smartAdjust       int
}

// idealKbps is a scheme's ideal PHY rate at a dimming level: payload bits
// per payload slot at the slot rate, with no framing, idle or loss. No
// measured goodput may exceed it.
func idealKbps(s scheme.Scheme, level float64) (float64, error) {
	c, err := s.CodecFor(level)
	if err != nil {
		return 0, err
	}
	const nbytes = 1024
	return float64(8*nbytes) / float64(c.PayloadSlots(nbytes)) / tslotSeconds / 1e3, nil
}

// checkGoodput counts one figure point and fails it when the goodput is
// not finite or beats the scheme's ideal rate.
func (r *figRepeat) checkGoodput(fig string, s scheme.Scheme, level, kbps float64) {
	r.points++
	ideal, err := idealKbps(s, level)
	switch {
	case err != nil:
		r.fail(fmt.Sprintf("%s %s level %v: %v", fig, s.Name(), level, err))
	case math.IsNaN(kbps) || kbps < 0 || kbps > ideal:
		r.fail(fmt.Sprintf("%s %s level %v: goodput %v kbps outside [0, ideal %v]", fig, s.Name(), level, kbps, ideal))
	}
}

// checkTable counts each row of an analytic table as a point and fails
// rows with non-finite numbers.
func (r *figRepeat) checkTable(t stats.Table) {
	if len(t.Rows) == 0 {
		r.points++
		r.fail(t.Title + ": empty table")
	}
	for _, row := range t.Rows {
		r.points++
		for _, c := range row {
			if l := strings.ToLower(c); strings.Contains(l, "nan") || strings.Contains(l, "inf") {
				r.fail(fmt.Sprintf("%s: non-finite cell %q", t.Title, c))
				break
			}
		}
	}
}

// repeat regenerates every figure once, timing each under a span when
// traced (op = repeat index).
func (b *figBench) repeat(tr *tracer, op int64) figRepeat {
	r := figRepeat{parts: map[string]time.Duration{}}
	h0, m0 := sim.CodecCacheStats()
	start, startCPU := time.Now(), processCPU()
	root := tr.begin("figures.repeat", -1, op)
	part := func(name string, fn func()) {
		s := tr.begin("experiments."+name, root, op)
		t0 := processCPU()
		fn()
		r.parts[name] += processCPU() - t0
		tr.end(s)
	}
	opt := experiments.LinkOptions{SecondsPerPoint: figSecondsPerPoint, Seed: b.linkSeed}

	part("analytic", func() {
		r.checkTable(experiments.Fig4())
		_, _, t6 := experiments.Fig6()
		r.checkTable(t6)
		_, t8 := experiments.Fig8(2.5e-3)
		r.checkTable(t8)
		_, t9 := experiments.Fig9()
		r.checkTable(t9)
		_, t10 := experiments.Fig10(0.2, 0.8)
		r.checkTable(t10)
		ind, dir := experiments.Table2()
		r.checkTable(ind)
		r.checkTable(dir)
	})
	part("fig4mc", func() {
		rows, _, err := experiments.Fig4MonteCarlo(figMCSymbols, b.mcSeed)
		if err != nil {
			r.points++
			r.fail("Fig4MonteCarlo: " + err.Error())
			return
		}
		for _, row := range rows {
			// The TestFig4MonteCarloAgreesWithEq3 band: 5σ (binomial,
			// Poisson-approximated) plus 3 symbols of slack.
			r.points++
			exp := row.AnalyticSER * float64(figMCSymbols)
			got := row.MeasuredSER * float64(figMCSymbols)
			if math.Abs(got-exp) > 5*math.Sqrt(exp)+3 {
				r.fail(fmt.Sprintf("Fig4MC %v: %v symbol errors, Eq. 3 predicts %v", row.Pattern, got, exp))
			}
			r.mcErrs += int(math.Round(got))
			r.mcSymbols += figMCSymbols
		}
	})
	part("fig15", func() {
		res, _, err := experiments.Fig15(opt)
		if err != nil {
			r.points += figPoints15
			r.fail("Fig15: " + err.Error())
			return
		}
		sum := 0.0
		for _, row := range res.Rows {
			r.checkGoodput("Fig15", b.amppm, row.Level, row.AMPPM)
			r.checkGoodput("Fig15", b.ookct, row.Level, row.OOKCT)
			r.checkGoodput("Fig15", b.mppm, row.Level, row.MPPMKbps)
			sum += row.AMPPM
		}
		r.amppmKbps = sum / float64(len(res.Rows))
	})
	part("fig16", func() {
		rows, _, err := experiments.Fig16(opt)
		if err != nil {
			r.points += figPoints16
			r.fail("Fig16: " + err.Error())
			return
		}
		for _, row := range rows {
			for level, kbps := range row.Kbps {
				r.checkGoodput("Fig16", b.amppm, level, kbps)
			}
		}
	})
	part("fig17", func() {
		rows, _, err := experiments.Fig17(opt)
		if err != nil {
			r.points += figPoints17
			r.fail("Fig17: " + err.Error())
			return
		}
		for _, row := range rows {
			for _, kbps := range row.Kbps {
				r.checkGoodput("Fig17", b.amppm, 0.5, kbps)
			}
		}
	})
	part("fig19", func() {
		res, err := experiments.Fig19(experiments.Fig19Options{Duration: figFig19Seconds, Seed: b.fig19Seed})
		r.points++
		if err != nil {
			r.fail("Fig19: " + err.Error())
			return
		}
		// Goodput can never beat AMPPM's best envelope rate, and the
		// perception-domain stepper must not adjust more often than the
		// measured-domain one (paper Fig. 19(c)).
		best := 0.0
		for l := 0.05; l < 0.96; l += 0.05 {
			if k, err := idealKbps(b.amppm, l); err == nil {
				best = max(best, k)
			}
		}
		problem := ""
		for _, p := range res.Throughput.Points {
			if p.V/1e3 > best {
				problem = fmt.Sprintf("%v kbps at t=%v beats the envelope's %v", p.V/1e3, p.T, best)
				break
			}
		}
		if res.SmartVLCAdjustments <= 0 || res.SmartVLCAdjustments > res.ExistingAdjustments {
			problem = fmt.Sprintf("%d SmartVLC adjustments vs %d existing", res.SmartVLCAdjustments, res.ExistingAdjustments)
		}
		if problem != "" {
			r.fail("Fig19: " + problem)
		}
		r.smartAdjust = res.SmartVLCAdjustments
	})
	tr.end(root)
	r.cpu, r.wall = processCPU()-startCPU, time.Since(start)
	h1, m1 := sim.CodecCacheStats()
	// The session loop looks its codec up once per frame sent.
	r.codecHits, r.codecMisses = h1-h0, m1-m0
	r.frames = r.codecHits + r.codecMisses
	return r
}

// figAirSeconds is the simulated air time of one repeat's sessions.
const figAirSeconds = (figPoints15+figPoints16+figPoints17)*figSecondsPerPoint + 2*figFig19Seconds

func runFigures(o runOpts) (*outcome, error) {
	runtime.GOMAXPROCS(runtime.NumCPU())
	t0 := processCPU()
	b, err := newFigBench(o.seed)
	if err != nil {
		return nil, err
	}
	coldSetup := (processCPU() - t0).Seconds()
	out := newOutcome()
	out.params = map[string]any{
		"seconds_per_point": figSecondsPerPoint, "fig19_seconds": figFig19Seconds,
		"fig4mc_symbols": figMCSymbols, "link_seed": b.linkSeed, "mc_seed": b.mcSeed,
		"fig19_seed": b.fig19Seed, "gomaxprocs": runtime.GOMAXPROCS(0),
	}
	var tr *tracer
	if o.trace {
		tr = newTracer(processCPU)
		out.tr = tr
	}
	// The first repeat warms the process-wide caches (planning tables,
	// samplers, thresholds); it is checked but not timed.
	first := b.repeat(nil, 0)
	out.attempted += first.points
	out.failures.add(first.failures)
	deadline := time.Now().Add(o.duration())
	var reps []figRepeat
	for len(reps) < 3 || time.Now().Before(deadline) {
		r := b.repeat(tr, int64(len(reps)))
		out.attempted += r.points
		out.failures.add(r.failures)
		reps = append(reps, r)
	}
	pick := func(f func(figRepeat) float64) []float64 {
		v := make([]float64, len(reps))
		for i, r := range reps {
			v[i] = f(r)
		}
		return v
	}
	out.series["repeat_cpu_s"] = pick(func(r figRepeat) float64 { return r.cpu.Seconds() })
	out.series["repeat_wall_s"] = pick(func(r figRepeat) float64 { return r.wall.Seconds() })
	if !o.trace {
		setupS, err := childSetup(wFigures, o)
		if err != nil {
			return nil, err
		}
		frameUs := pick(func(r figRepeat) float64 { return r.cpu.Seconds() * 1e6 / float64(r.frames) })
		out.e2e["setup_s"] = setupS
		out.e2e["figures_s"] = median(out.series["repeat_cpu_s"])
		out.e2e["frames_per_s"] = median(pick(func(r figRepeat) float64 { return float64(r.frames) / r.cpu.Seconds() }))
		out.e2e["frame_us_p50"] = percentile(frameUs, 50)
		out.e2e["frame_us_p99"] = percentile(frameUs, 99)
		out.e2e["frame_loss"] = float64(first.mcErrs) / float64(first.mcSymbols)
		out.e2e["sim_speed"] = median(pick(func(r figRepeat) float64 { return figAirSeconds / r.cpu.Seconds() }))
		out.e2e["goodput_kbps"] = first.amppmKbps
		return out, nil
	}

	l := out.layer
	for _, name := range []string{"analytic", "fig4mc", "fig15", "fig16", "fig17", "fig19"} {
		l["experiments."+name+"_s"] = median(pick(func(r figRepeat) float64 { return r.parts[name].Seconds() }))
	}
	l["photon.sample_ns"] = l["experiments.fig4mc_s"] * 1e9 / float64(figMCSymbols*figMCSlotsPerSymbol)
	l["light.adjustments"] = float64(first.smartAdjust)
	l["amppm.table_s"] = coldSetup
	var hits, lookups int64
	for _, r := range reps {
		hits += r.codecHits
		lookups += r.codecHits + r.codecMisses
	}
	l["sim.codec_hit_ratio"] = float64(hits) / float64(lookups)

	// One sweep (Fig. 16, 19 points) at GOMAXPROCS 1 and nproc, paired
	// and repeated; the speed-up is the ratio of the median wall times.
	opt := experiments.LinkOptions{SecondsPerPoint: figSecondsPerPoint, Seed: b.linkSeed}
	var serial, par []float64
	for i := 0; i < 3; i++ {
		for _, procs := range []int{1, runtime.NumCPU()} {
			runtime.GOMAXPROCS(procs)
			t := time.Now()
			if _, _, err := experiments.Fig16(opt); err != nil {
				return nil, err
			}
			d := time.Since(t).Seconds()
			if procs == 1 {
				serial = append(serial, d)
			} else {
				par = append(par, d)
			}
		}
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	l["parallel.speedup"] = median(serial) / median(par)
	return out, nil
}
