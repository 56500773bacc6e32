// Benchmark harness: one benchmark per table and figure of the SmartVLC
// paper's evaluation, plus ablations of the design choices called out in
// DESIGN.md. Each benchmark regenerates its figure from scratch per
// iteration and reports the headline numbers as custom metrics, so
// `go test -bench=. -benchmem` doubles as the reproduction record
// (bench_output.txt in EXPERIMENTS.md).
package smartvlc

import (
	"math"
	"runtime"
	"testing"
	"time"

	"smartvlc/internal/amppm"
	"smartvlc/internal/experiments"
	"smartvlc/internal/flicker"
	"smartvlc/internal/light"
	"smartvlc/internal/mppm"
	"smartvlc/internal/sim"
)

// benchOpts keeps the per-point simulation time short enough for the
// whole suite to run in minutes; raise SecondsPerPoint for tighter error
// bars (the paper runs 30 s per point).
var benchOpts = experiments.LinkOptions{SecondsPerPoint: 0.25, Seed: 1}

func BenchmarkFig04_MPPMSERvsDimming(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig4()
		if len(t.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
	b.ReportMetric(mppm.SER(120, 60, experiments.PaperP1, experiments.PaperP2)*1e3, "SER(N=120,l=0.5)_x1e-3")
}

func BenchmarkFig06_MultiplexedDimmingLevels(b *testing.B) {
	var nBefore, nAfter int
	for i := 0; i < b.N; i++ {
		before, after, _ := experiments.Fig6()
		nBefore, nAfter = len(before), len(after)
	}
	b.ReportMetric(float64(nBefore), "levels_before")
	b.ReportMetric(float64(nAfter), "levels_after")
}

func BenchmarkFig08_SERPruning(b *testing.B) {
	kept := 0
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.Fig8(2.5e-3)
		kept = 0
		for _, r := range rows {
			if r.Kept {
				kept++
			}
		}
	}
	b.ReportMetric(float64(kept), "patterns_kept")
}

func BenchmarkFig09_SlopeWalkEnvelope(b *testing.B) {
	var peak float64
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.Fig9()
		for _, r := range rows {
			if r.EnvelopeRate > peak {
				peak = r.EnvelopeRate
			}
		}
	}
	b.ReportMetric(peak, "peak_bits_per_slot")
}

func BenchmarkFig10_AdaptationDomains(b *testing.B) {
	var rows []experiments.Fig10Row
	for i := 0; i < b.N; i++ {
		rows, _ = experiments.Fig10(0.2, 0.8)
	}
	b.ReportMetric(float64(len(rows)), "max_steps")
}

func BenchmarkTable2_FlickerUserStudy(b *testing.B) {
	var safe float64
	for i := 0; i < b.N; i++ {
		experiments.Table2()
		safe = flicker.NewPopulation(20).SafeResolution()
	}
	b.ReportMetric(safe*1e3, "safe_resolution_x1e-3")
}

func BenchmarkFig15_ThroughputVsDimming(b *testing.B) {
	var res experiments.Fig15Result
	for i := 0; i < b.N; i++ {
		var err error
		res, _, err = experiments.Fig15(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Rows[8].AMPPM, "amppm_kbps_l0.50")
	b.ReportMetric(res.Rows[0].AMPPM, "amppm_kbps_l0.10")
	b.ReportMetric(res.Rows[0].OOKCT, "ookct_kbps_l0.10")
	b.ReportMetric(res.Rows[0].MPPMKbps, "mppm_kbps_l0.10")
	b.ReportMetric(res.AvgOverOOKCT*100, "avg_gain_vs_ookct_pct")
	b.ReportMetric(res.AvgOverMPPM*100, "avg_gain_vs_mppm_pct")
	b.ReportMetric(res.MaxOverOOKCT*100, "max_gain_vs_ookct_pct")
	b.ReportMetric(res.MaxOverMPPM*100, "max_gain_vs_mppm_pct")
}

func BenchmarkFig16_ThroughputVsDistance(b *testing.B) {
	var rows []experiments.Fig16Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = experiments.Fig16(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Locate the range cliff: last distance with >50% of the 1 m rate.
	ref := rows[2].Kbps[0.5]
	cliff := 0.0
	for _, r := range rows {
		if r.Kbps[0.5] > ref/2 {
			cliff = r.DistanceM
		}
	}
	b.ReportMetric(cliff, "range_m")
	b.ReportMetric(rows[10].Kbps[0.5], "kbps_at_3m_l0.5")
}

func BenchmarkFig17_ThroughputVsAngle(b *testing.B) {
	var rows []experiments.Fig17Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = experiments.Fig17(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
	}
	cutoff := func(d float64) float64 {
		ref := rows[0].Kbps[d]
		last := 0.0
		for _, r := range rows {
			if r.Kbps[d] > ref/2 {
				last = r.AngleDeg
			}
		}
		return last
	}
	b.ReportMetric(cutoff(1.3), "cutoff_deg_1.3m")
	b.ReportMetric(cutoff(2.3), "cutoff_deg_2.3m")
	b.ReportMetric(cutoff(3.3), "cutoff_deg_3.3m")
}

func BenchmarkFig19_DynamicScenario(b *testing.B) {
	var res experiments.Fig19Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Fig19(experiments.Fig19Options{Duration: 12, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.SmartVLCAdjustments), "smartvlc_adjustments")
	b.ReportMetric(float64(res.ExistingAdjustments), "existing_adjustments")
	b.ReportMetric(100*(1-float64(res.SmartVLCAdjustments)/float64(res.ExistingAdjustments)), "reduction_pct")
}

// --- Ablations (design choices discussed in DESIGN.md §4) ---

// BenchmarkAblation_EnvelopeVsNaive compares AMPPM's envelope selection
// against the "best single pattern per level" strategy (paper Fig. 9's
// red curve): the envelope's rate advantage at off-grid levels.
func BenchmarkAblation_EnvelopeVsNaive(b *testing.B) {
	tab, err := amppm.NewTable(amppm.DefaultConstraints())
	if err != nil {
		b.Fatal(err)
	}
	var envSum, naiveSum float64
	for i := 0; i < b.N; i++ {
		envSum, naiveSum = 0, 0
		for l := 0.1; l <= 0.9; l += 0.005 {
			envSum += tab.EnvelopeRateAt(l)
			naiveSum += tab.BestSingleRateAt(l, 0.0025)
		}
	}
	b.ReportMetric(envSum/naiveSum, "envelope_vs_naive_rate_ratio")
}

// BenchmarkAblation_CombinadicVsTable motivates the combinadic codec
// (paper §4.4): table-based mapping for S(50,25) would need ~126 TB; the
// combinadic codec encodes in O(N) time and O(N·K) memory.
func BenchmarkAblation_CombinadicVsTable(b *testing.B) {
	c := mppm.NewCodec(mppm.Pattern{N: 50, K: 25})
	buf := make([]bool, 50)
	mask := uint64(1)<<uint(c.Bits()) - 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(uint64(i)&mask, buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(c.Bits()), "bits_per_symbol")
}

// BenchmarkAblation_FlickerCap sweeps the Type-I flicker threshold: a
// higher f_th shrinks Nmax, which coarsens the dimming resolution.
func BenchmarkAblation_FlickerCap(b *testing.B) {
	var resolutions []float64
	for i := 0; i < b.N; i++ {
		resolutions = resolutions[:0]
		for _, fth := range []float64{125, 250, 500, 1000} {
			cons := amppm.DefaultConstraints()
			cons.FlickerHz = fth
			tab, err := amppm.NewTable(cons)
			if err != nil {
				b.Fatal(err)
			}
			resolutions = append(resolutions, tab.Resolution(100))
		}
	}
	b.ReportMetric(resolutions[1]*1e3, "resolution_fth250_x1e-3")
	b.ReportMetric(resolutions[3]*1e3, "resolution_fth1000_x1e-3")
}

// BenchmarkAblation_PayloadSize shows the paper's observation that small
// payloads erode AMPPM's gain (fixed header + compensation overhead).
func BenchmarkAblation_PayloadSize(b *testing.B) {
	a, _, _, err := experiments.Schemes()
	if err != nil {
		b.Fatal(err)
	}
	goodput := map[int]float64{}
	for i := 0; i < b.N; i++ {
		for _, size := range []int{16, 128, 1024} {
			cfg := sim.DefaultConfig(a)
			cfg.FixedLevel = 0.3
			cfg.PayloadBytes = size
			cfg.Seed = uint64(size)
			r, err := sim.Run(cfg, 0.25)
			if err != nil {
				b.Fatal(err)
			}
			goodput[size] = r.GoodputBps / 1000
		}
	}
	b.ReportMetric(goodput[16], "kbps_payload16B")
	b.ReportMetric(goodput[128], "kbps_payload128B")
	b.ReportMetric(goodput[1024], "kbps_payload1024B")
}

// BenchmarkAblation_SERBound sweeps the pattern-pruning bound: looser
// bounds admit longer symbols (higher rate) at higher symbol error rates.
func BenchmarkAblation_SERBound(b *testing.B) {
	rates := map[float64]float64{}
	for i := 0; i < b.N; i++ {
		for _, bound := range []float64{1e-3, 5e-3, 2e-2} {
			cons := amppm.DefaultConstraints()
			cons.SERBound = bound
			tab, err := amppm.NewTable(cons)
			if err != nil {
				b.Fatal(err)
			}
			rates[bound] = tab.EnvelopeRateAt(0.5)
		}
	}
	b.ReportMetric(rates[1e-3], "rate_bound1e-3")
	b.ReportMetric(rates[5e-3], "rate_bound5e-3")
	b.ReportMetric(rates[2e-2], "rate_bound2e-2")
}

// BenchmarkAblation_Steppers isolates the adaptation comparison of
// Fig. 19(c) without the link simulation.
func BenchmarkAblation_Steppers(b *testing.B) {
	var np, nm int
	for i := 0; i < b.N; i++ {
		np = len(light.PerceivedStepper{TauP: light.DefaultTauP}.Plan(0.1, 0.9))
		nm = len(light.SafeMeasuredStepper(light.DefaultTauP, 0.1).Plan(0.1, 0.9))
	}
	b.ReportMetric(float64(np), "perceived_steps")
	b.ReportMetric(float64(nm), "measured_steps")
}

// BenchmarkEndToEndFrame measures the full TX→channel→RX pipeline cost
// for one 128-byte frame at the paper's operating point.
func BenchmarkEndToEndFrame(b *testing.B) {
	sys, err := New(DefaultConstraints())
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 128)
	slots, err := sys.BuildFrame(0.5, payload)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	misses := 0
	var rep DeliverReport
	for i := 0; i < b.N; i++ {
		if err := sys.DeliverInto(&rep, Aligned(3, 0), 8000, uint64(i), slots); err != nil {
			b.Fatal(err)
		}
		if len(rep.Payloads) != 1 {
			misses++ // rare phase corners lose a frame; the ARQ covers them
		}
	}
	if misses > b.N/20+1 {
		b.Fatalf("%d/%d frames lost", misses, b.N)
	}
	b.ReportMetric(float64(misses)/float64(b.N)*100, "frame_loss_pct")
}

// BenchmarkBroadcast3Receivers measures the multi-receiver extension:
// reliable multicast to three desks.
func BenchmarkBroadcast3Receivers(b *testing.B) {
	sys, err := New(DefaultConstraints())
	if err != nil {
		b.Fatal(err)
	}
	cfg := BroadcastConfig{
		Config: DefaultSessionConfig(sys.Scheme()),
		Receivers: []ReceiverPose{
			{Geometry: Aligned(1.8, 0)},
			{Geometry: Aligned(2.6, 4)},
			{Geometry: Aligned(3.3, 7)},
		},
	}
	var reliable float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		res, err := RunBroadcast(cfg, 0.3)
		if err != nil {
			b.Fatal(err)
		}
		reliable = res.ReliableGoodputBps / 1000
	}
	b.ReportMetric(reliable, "reliable_kbps")
}

// BenchmarkStreamTransfer measures the byte-pipe API end to end.
func BenchmarkStreamTransfer(b *testing.B) {
	sys, err := New(DefaultConstraints())
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 4096)
	var effective float64
	for i := 0; i < b.N; i++ {
		st, err := sys.OpenStream(Aligned(3, 0), 8000, 0.5, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := st.Write(data); err != nil {
			b.Fatal(err)
		}
		effective = float64(len(data)*8) / st.AirtimeSeconds() / 1000
	}
	b.ReportMetric(effective, "effective_kbps")
}

// BenchmarkAblation_CompensationFreeSchemes runs the full link at l=0.3
// for every compensation-free scheme, confirming the rate hierarchy that
// made the paper build AMPPM on MPPM: AMPPM > MPPM > OPPM > VPPM.
func BenchmarkAblation_CompensationFreeSchemes(b *testing.B) {
	a, err := NewAMPPMScheme(DefaultConstraints())
	if err != nil {
		b.Fatal(err)
	}
	m, _ := NewMPPM(20)
	o, _ := NewOPPM(20)
	v := NewVPPM()
	out := map[string]float64{}
	for i := 0; i < b.N; i++ {
		for _, s := range []Scheme{a, m, o, v} {
			cfg := DefaultSessionConfig(s)
			cfg.FixedLevel = 0.3
			r, err := RunSession(cfg, 0.25)
			if err != nil {
				b.Fatal(err)
			}
			out[s.Name()] = r.GoodputBps / 1000
		}
	}
	b.ReportMetric(out["AMPPM"], "amppm_kbps")
	b.ReportMetric(out["MPPM"], "mppm_kbps")
	b.ReportMetric(out["OPPM"], "oppm_kbps")
	b.ReportMetric(out["VPPM"], "vppm_kbps")
}

// BenchmarkAblation_UplinkWiFiVsVLC compares the prototype's Wi-Fi ACK
// channel with the future-work VLC return link.
func BenchmarkAblation_UplinkWiFiVsVLC(b *testing.B) {
	sys, err := New(DefaultConstraints())
	if err != nil {
		b.Fatal(err)
	}
	out := map[string]float64{}
	for i := 0; i < b.N; i++ {
		wifi := DefaultSessionConfig(sys.Scheme())
		wifi.Geometry = Aligned(2.0, 0)
		rw, err := RunSession(wifi, 0.3)
		if err != nil {
			b.Fatal(err)
		}
		out["wifi"] = rw.GoodputBps / 1000

		vlc := wifi
		vlc.UplinkVLCBitRate = 10e3
		rv, err := RunSession(vlc, 0.3)
		if err != nil {
			b.Fatal(err)
		}
		out["vlc"] = rv.GoodputBps / 1000
	}
	b.ReportMetric(out["wifi"], "wifi_uplink_kbps")
	b.ReportMetric(out["vlc"], "vlc_uplink_kbps")
}

// BenchmarkParallelScaling is the multi-core scaling gate: for each
// parallel workload (an 8-session fleet, the Fig. 4 Monte-Carlo and a
// 4-receiver broadcast) it times the best of three runs at 1 and at 4
// workers, reports the speedup, and fails when 4 workers are slower than
// one. It is a benchmark, not a test, so `go test ./...` on a shared host
// never asserts on wall time; run it alone on a multi-core machine:
//
//	GOMAXPROCS=4 go test -run '^$' -bench '^BenchmarkParallelScaling$' -benchtime 1x .
func BenchmarkParallelScaling(b *testing.B) {
	if runtime.NumCPU() < 2 || runtime.GOMAXPROCS(0) < 2 {
		b.Skip("a speedup needs more than one CPU")
	}
	sys, err := New(DefaultConstraints())
	if err != nil {
		b.Fatal(err)
	}
	families := []struct {
		name string
		run  func(workers int) error
	}{
		{"fleet", func(workers int) error {
			cfgs := make([]SessionConfig, 8)
			for j := range cfgs {
				cfgs[j] = DefaultSessionConfig(sys.Scheme())
				cfgs[j].FixedLevel = 0.5
				cfgs[j].Seed = uint64(j + 1)
			}
			_, err := RunFleet(cfgs, 0.1, workers)
			return err
		}},
		{"fig4mc", func(workers int) error {
			_, _, err := experiments.Fig4MonteCarloWorkers(40000, 11, workers)
			return err
		}},
		{"broadcast", func(workers int) error {
			cfg := BroadcastConfig{Config: DefaultSessionConfig(sys.Scheme()), Workers: workers}
			cfg.FixedLevel = 0.5
			base := cfg.Geometry
			cfg.Receivers = []ReceiverPose{
				{Geometry: base},
				{Geometry: base, AmbientScale: 1.4},
				{Geometry: base, AmbientScale: 0.7},
				{Geometry: base, AmbientScale: 1.1},
			}
			_, err := RunBroadcast(cfg, 0.1)
			return err
		}},
	}
	timed := func(run func(int) error, workers int) time.Duration {
		start := time.Now()
		if err := run(workers); err != nil {
			b.Fatal(err)
		}
		return time.Since(start)
	}
	for i := 0; i < b.N; i++ {
		for _, f := range families {
			// One untimed run warms codec caches and pools, and the timed
			// runs alternate, swapping which goes first, so neither worker
			// count gets the cold start or a quieter stretch of the host.
			timed(f.run, 4)
			serial, parallel := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
			for r := 0; r < 3; r++ {
				if r%2 == 0 {
					serial = min(serial, timed(f.run, 1))
				}
				parallel = min(parallel, timed(f.run, 4))
				if r%2 == 1 {
					serial = min(serial, timed(f.run, 1))
				}
			}
			speedup := float64(serial) / float64(parallel)
			b.ReportMetric(speedup, f.name+"_speedup_4w")
			if speedup < 1 {
				b.Fatalf("%s: 4 workers %.2fx the speed of one", f.name, speedup)
			}
		}
	}
}
