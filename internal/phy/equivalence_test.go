package phy

import (
	"bytes"
	"math/rand/v2"
	"reflect"
	"testing"

	"smartvlc/internal/frame"
	"smartvlc/internal/optics"
	"smartvlc/internal/photon"
	"smartvlc/internal/scheme"
	"smartvlc/internal/telemetry"
)

// eqOperatingPoint is a robust short link (high SNR) so decode outcomes
// are deterministic per seed and insensitive to platform float quirks.
func eqOperatingPoint(t *testing.T) (Link, photon.Channel, frame.CodecFactory, *scheme.AMPPM) {
	t.Helper()
	ch, err := photon.DefaultLinkBudget().ChannelAt(optics.Aligned(1.5, 0), 800)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := scheme.NewAMPPM(benchConstraints())
	if err != nil {
		t.Fatal(err)
	}
	return DefaultLink(ch), ch, sch.Factory(), sch
}

func eqFrameStream(t *testing.T, sch *scheme.AMPPM, level float64, nFrames, idleGap int, seed uint64) []bool {
	t.Helper()
	codec, err := sch.CodecFor(level)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(seed, 0xF00D))
	slots := frame.AppendIdle(nil, codec.Level(), idleGap)
	for f := 0; f < nFrames; f++ {
		payload := make([]byte, 96)
		for i := range payload {
			payload[i] = byte(rng.Uint64())
		}
		fs, err := frame.Build(codec, payload)
		if err != nil {
			t.Fatal(err)
		}
		slots = append(slots, fs...)
		slots = frame.AppendIdle(slots, codec.Level(), idleGap)
	}
	return slots
}

// TestProcessMatchesReference pins the window-sum receiver to the original
// per-sample implementation: the fast path is pure integer arithmetic over
// the same sums, so Results and Stats must match bit for bit — on clean
// streams, noisy streams and arbitrary sample garbage alike.
func TestProcessMatchesReference(t *testing.T) {
	link, ch, factory, sch := eqOperatingPoint(t)

	type stream struct {
		name    string
		samples []int
	}
	var streams []stream

	for _, level := range []float64{0.3, 0.5, 0.72} {
		slots := eqFrameStream(t, sch, level, 3, 80, uint64(level*1000))
		rng := rand.New(rand.NewPCG(uint64(level*64), 11))
		link.StartPhase = rng.Float64()
		streams = append(streams, stream{"clean-frames", link.referenceTransmit(rng, slots)})
	}
	// Signal-free air: the hunt path only.
	rng := rand.New(rand.NewPCG(77, 78))
	streams = append(streams, stream{"dark-air", link.referenceTransmit(rng, make([]bool, 6000))})
	// Arbitrary garbage, including values that straddle the threshold and
	// tease partial preambles.
	garbage := make([]int, 40000)
	for i := range garbage {
		garbage[i] = int(rng.Uint64() % 64)
	}
	streams = append(streams, stream{"garbage", garbage})
	// Degenerate lengths around the preamble-window bound.
	streams = append(streams, stream{"empty", nil}, stream{"tiny", []int{5, 9, 2}})

	for _, s := range streams {
		fastRx := NewReceiver(ch, factory)
		refRx := NewReceiver(ch, factory)
		gotRes, gotStats := fastRx.Process(s.samples)
		wantRes, wantStats := refRx.referenceProcess(s.samples)
		if !reflect.DeepEqual(gotRes, wantRes) {
			t.Fatalf("%s: results diverge:\nfast %+v\nref  %+v", s.name, gotRes, wantRes)
		}
		if !reflect.DeepEqual(gotStats, wantStats) {
			t.Fatalf("%s: stats diverge: fast %+v ref %+v", s.name, gotStats, wantStats)
		}
		if fa, fok := fastRx.AmbientWindowCounts(); true {
			ra, rok := refRx.AmbientWindowCounts()
			if fa != ra || fok != rok {
				t.Fatalf("%s: ambient estimate diverges: fast (%v,%v) ref (%v,%v)", s.name, fa, fok, ra, rok)
			}
		}
	}
}

// TestTransmitDecodeMatchesReference is the end-to-end equivalence guard:
// a fixed-seed session pushed through the settled-slot transmitter must
// decode byte-identical payloads to the same session pushed through the
// original per-segment transmitter. The fast path's cached lambda can
// differ from the reference's accumulated one by float ulps, so the
// contract is decode-level, at an operating point with SNR headroom.
func TestTransmitDecodeMatchesReference(t *testing.T) {
	link, ch, factory, sch := eqOperatingPoint(t)

	for _, level := range []float64{0.25, 0.5, 0.8} {
		for seed := uint64(1); seed <= 3; seed++ {
			slots := eqFrameStream(t, sch, level, 4, 120, seed*13)

			fastRng := rand.New(rand.NewPCG(seed, 0xAB))
			refRng := rand.New(rand.NewPCG(seed, 0xAB))
			link.StartPhase = fastRng.Float64()
			fastSamples := link.Transmit(fastRng, slots)
			link.StartPhase = refRng.Float64()
			refSamples := link.referenceTransmit(refRng, slots)

			if len(fastSamples) != len(refSamples) {
				t.Fatalf("level %v seed %d: sample count %d vs %d", level, seed, len(fastSamples), len(refSamples))
			}

			fastRx := NewReceiver(ch, factory)
			refRx := NewReceiver(ch, factory)
			fastRes, fastStats := fastRx.Process(fastSamples)
			refRes, refStats := refRx.referenceProcess(refSamples)
			RecycleSamples(fastSamples)

			if fastStats.FramesOK != 4 || refStats.FramesOK != 4 {
				t.Fatalf("level %v seed %d: decode loss (fast %v, ref %v)", level, seed, fastStats, refStats)
			}
			if len(fastRes) != len(refRes) {
				t.Fatalf("level %v seed %d: %d vs %d frames", level, seed, len(fastRes), len(refRes))
			}
			for i := range fastRes {
				if !bytes.Equal(fastRes[i].Payload, refRes[i].Payload) {
					t.Fatalf("level %v seed %d frame %d: payloads differ", level, seed, i)
				}
			}
		}
	}
}

// TestSettledWindow pins the settled-run gate of the transmit walk
// through its window counts: a window may skip the slew integration only
// when the LED sits on a rail and every slot it touches holds that rail's
// value, including the hold-state past the end of the waveform. Each case
// counts the exact windows one Transmit takes; the rest must be settled.
func TestSettledWindow(t *testing.T) {
	office := DefaultLink(channelAt(t, 3, 8000))
	office.StartPhase = 0.41
	// Drift-free clocks at phase 0 put slot edges exactly on window
	// edges (4 windows per slot), so an edge window starts on the old
	// rail with the new slot value already active.
	aligned := office
	aligned.TxClock.OffsetPPM, aligned.RxClock.OffsetPPM = 0, 0
	aligned.StartPhase = 0
	aligned.LED.FallSeconds = 1e-6 // half a window: the fall ends inside the edge window
	slow := aligned
	slow.LED.RiseSeconds = 7e-6 // three and a half windows of slew
	run := func(v bool, n int) []bool {
		out := make([]bool, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	cases := []struct {
		name      string
		link      Link
		slots     []bool
		wantExact int64
	}{
		{"all-on", office, run(true, 50), 0},
		{"all-off", office, run(false, 50), 0},
		// The 0→1 edge starts a four-window ramp: the edge window and three
		// mid-slew windows whose slots agree but whose LED is off-rail.
		{"mid-slew", slow, append(run(false, 8), run(true, 8)...), 4},
		// Unaligned, each of the three edges takes the window straddling it
		// and the next one, where the 2 µs fall completes.
		{"transition", office, append(append(run(true, 6), run(false, 6)...), append(run(true, 6), run(false, 6)...)...), 6},
		// Aligned, the edge window opens on the 1 rail while its slot is
		// already 0, and the fall completes within it.
		{"wrong-rail", aligned, append(run(true, 8), run(false, 8)...), 1},
		{"hold-past-end", office, []bool{true, true}, 0},
		{"empty-stream", office, nil, 0},
	}
	for _, c := range cases {
		l := c.link
		l.Metrics = NewTxMetrics(telemetry.New())
		samples := l.Transmit(rand.New(rand.NewPCG(1, 2)), c.slots)
		settled, exact := l.Metrics.SettledWindows.Value(), l.Metrics.ExactWindows.Value()
		if exact != c.wantExact || settled+exact != int64(len(samples)) {
			t.Errorf("%s: %d exact + %d settled windows over %d samples, want %d exact",
				c.name, exact, settled, len(samples), c.wantExact)
		}
		RecycleSamples(samples)
	}
}
