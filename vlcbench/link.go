package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"runtime"
	"strings"
	"time"

	"smartvlc/internal/amppm"
	"smartvlc/internal/frame"
	"smartvlc/internal/mac"
	"smartvlc/internal/optics"
	"smartvlc/internal/photon"
	"smartvlc/internal/phy"
	"smartvlc/internal/scheme"
)

// link_frames drives one AMPPM link frame by frame through the layers'
// public calls, on one goroutine with every observability hook nil. A
// pass is a fixed, seeded schedule of segments; each segment holds one
// dimming level and one geometry for linkSegFrames frames. Every pass
// replays the same inputs and channel streams, so the simulated outcome
// (frame loss, goodput) repeats exactly for a seed while the host timing
// accumulates over passes.
const (
	linkSegments  = 64
	linkSegFrames = 32
	linkPayload   = 128 // paper Table 1
	linkIdleGap   = 24  // sim.DefaultConfig's IdleGapSlots
	linkWindow    = 8
	linkTimeout   = 0.25
	tslotSeconds  = 8e-6
	// linkSimPasses channel realizations make up the simulated outcome.
	linkSimPasses = 4
)

// linkGeometry is one operating point: the paper's 3 m office link and
// its 3.6 m bright-ambient calibration corner (DESIGN.md §6).
type linkGeometry struct {
	name string
	g    optics.Geometry
	lux  float64
}

var linkGeometries = [2]linkGeometry{
	{"office_3m_8000lux", optics.Aligned(3.0, 0), 8000},
	{"corner_3.6m_9700lux", optics.Aligned(3.6, 0), 9700},
}

type linkSegment struct {
	level float64
	geom  int
}

// linkBench is the set-up state of the workload: the scheme and its
// planning table, the link budget, one receiver per geometry and the
// seeded schedule.
type linkBench struct {
	seed   uint64
	sch    *scheme.AMPPM
	budget photon.LinkBudget
	rx     [2]*phy.Receiver
	plan   []linkSegment
}

// newLinkBench is the workload's set-up, timed as setup_s. Levels are
// stratified over [0.1, 0.9] per geometry, with a seeded offset inside
// each stratum, and the segment order is a seeded shuffle, so every seed
// sweeps the whole range with the same mix.
func newLinkBench(seed uint64) (*linkBench, error) {
	sch, err := scheme.NewAMPPM(amppm.DefaultConstraints())
	if err != nil {
		return nil, err
	}
	b := &linkBench{seed: seed, sch: sch, budget: photon.DefaultLinkBudget()}
	for i, lg := range linkGeometries {
		ch, err := b.budget.ChannelAt(lg.g, lg.lux)
		if err != nil {
			return nil, err
		}
		b.rx[i] = phy.NewReceiver(ch, sch.Factory())
	}
	rng := rand.New(rand.NewPCG(seed, 0x11AF))
	per := linkSegments / len(linkGeometries)
	for gi := range linkGeometries {
		for k := 0; k < per; k++ {
			level := 0.1 + 0.8*(float64(k)+rng.Float64())/float64(per)
			b.plan = append(b.plan, linkSegment{level: level, geom: gi})
		}
	}
	rng.Shuffle(len(b.plan), func(i, j int) { b.plan[i], b.plan[j] = b.plan[j], b.plan[i] })
	return b, nil
}

// passStats is one pass's simulated outcome and host timing.
type passStats struct {
	failures
	attempted                                        int
	frames, lost, decoded, symbolErrors, retransmits int
	slots, samples                                   int64
	ackedBytes                                       int64
	airSeconds                                       float64
	frameNs                                          []float64 // CPU time per frame
	cpu, wall                                        time.Duration
}

// pass runs the schedule once over channel realization p, timing each
// frame in the thread's CPU time. With a non-nil tracer every layer call
// is wrapped in a span; op numbers continue from opBase.
func (b *linkBench) pass(tr *tracer, opBase int64, p int) passStats {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var ps passStats
	pcg := rand.NewPCG(b.seed, 0xC4A70000+uint64(p))
	phase := rand.New(rand.NewPCG(b.seed, 0x9A5E0000+uint64(p)))
	sender, err := mac.NewSender(linkWindow, linkPayload, linkTimeout, rand.New(rand.NewPCG(b.seed, 0xACED)))
	if err != nil {
		ps.fail(err.Error())
		return ps
	}
	// abort ends a frame that a call failed.
	abort := func(root int32, msg string) {
		tr.end(root)
		ps.fail(msg)
	}
	rxSide := mac.NewReceiverSide(linkPayload)
	var slotBuf []bool
	sent := make([]byte, 0, mac.SeqBytes+linkPayload)
	now := 0.0
	op := opBase
	start, startCPU := time.Now(), threadCPU()
	for _, seg := range b.plan {
		lg := linkGeometries[seg.geom]
		rx := b.rx[seg.geom]
		resetRx := true
		for k := 0; k < linkSegFrames; {
			t0 := threadCPU()
			root := tr.begin("link.frame", -1, op)

			s := tr.begin("scheme.codec", root, op)
			codec, err := b.sch.CodecFor(seg.level)
			tr.end(s)
			if err != nil {
				abort(root, fmt.Sprintf("CodecFor(%v): %v", seg.level, err))
				k++
				continue
			}

			s = tr.begin("mac.next", root, op)
			seq, body, ok := sender.NextFrame(now)
			tr.end(s)
			if !ok {
				// Window full behind a lost frame: the LED idles at the
				// dimming level until the retransmit timer fires.
				tr.discard(root)
				now += linkTimeout / 8
				continue
			}
			sent = append(sent[:0], body...)

			s = tr.begin("frame.build", root, op)
			slots, err := frame.BuildAppend(slotBuf[:0], codec, sent)
			if err == nil {
				slots = frame.AppendIdle(slots, codec.Level(), linkIdleGap)
				slotBuf = slots
			}
			tr.end(s)
			if err != nil {
				abort(root, fmt.Sprintf("BuildAppend: %v", err))
				k++
				continue
			}

			s = tr.begin("photon.channel", root, op)
			ch, err := b.budget.ChannelAt(lg.g, lg.lux)
			tr.end(s)
			if err != nil {
				abort(root, fmt.Sprintf("ChannelAt: %v", err))
				k++
				continue
			}

			s = tr.begin("phy.tx", root, op)
			link := phy.DefaultLink(ch)
			link.StartPhase = phase.Float64()
			samples := link.TransmitPCG(pcg, slots)
			tr.end(s)

			s = tr.begin("phy.rx", root, op)
			if resetRx {
				rx.Reset(ch, b.sch.Factory())
				resetRx = false
			}
			results, st := rx.Process(samples)
			tr.end(s)

			ps.attempted++
			ps.frames++
			ps.slots += int64(len(slots))
			ps.samples += int64(len(samples))
			ps.symbolErrors += st.SymbolErrors
			switch {
			case len(results) == 0:
				ps.lost++
			case len(results) > 1 || !bytes.Equal(results[0].Payload, sent):
				ps.fail(fmt.Sprintf("frame seq %d: decoded payload differs from the one sent", seq))
			default:
				ps.decoded++
			}

			s = tr.begin("mac.ack", root, op)
			for _, r := range results {
				if gotSeq, ackIt := rxSide.OnFrame(r.Payload); ackIt {
					sender.OnAck(gotSeq)
				}
			}
			tr.end(s)
			phy.RecycleSamples(samples)
			tr.end(root)
			ps.frameNs = append(ps.frameNs, float64(threadCPU()-t0))
			now += float64(len(slots)) * tslotSeconds
			op++
			k++
		}
	}
	ps.cpu, ps.wall = threadCPU()-startCPU, time.Since(start)
	ps.retransmits = sender.Retransmits()
	ps.ackedBytes = sender.AckedPayload()
	ps.airSeconds = now
	return ps
}

// fail counts a failed frame operation.
func (ps *passStats) fail(msg string) {
	ps.attempted++
	ps.failures.fail(msg)
}

// add pools another pass's simulated outcome into ps.
func (ps *passStats) add(o passStats) {
	ps.frames += o.frames
	ps.lost += o.lost
	ps.decoded += o.decoded
	ps.symbolErrors += o.symbolErrors
	ps.retransmits += o.retransmits
	ps.slots += o.slots
	ps.samples += o.samples
	ps.ackedBytes += o.ackedBytes
	ps.airSeconds += o.airSeconds
}

func runLinkFrames(o runOpts) (*outcome, error) {
	b, err := newLinkBench(o.seed)
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	out.params = map[string]any{
		"segments": linkSegments, "frames_per_segment": linkSegFrames,
		"payload_bytes": linkPayload, "levels": "stratified over [0.1, 0.9]",
		"geometries": []string{linkGeometries[0].name, linkGeometries[1].name},
		"scheme":     "AMPPM", "window": linkWindow, "idle_gap_slots": linkIdleGap,
		"simulated_passes": linkSimPasses,
	}
	var tr *tracer
	if o.trace {
		tr = newTracer(threadCPU)
		out.tr = tr
	}
	// Pass 0 warms the codec cache, sampler tables and pools and is not
	// timed. The simulated outcome pools passes 0..linkSimPasses-1, each
	// with its own channel streams, so it is exact for a seed. In traced
	// mode every untraced pass is followed by a traced replay of the same
	// pass (ABAB…), so the tracing overhead compares like with like.
	var pooled passStats
	var plainNs, passRates, passWall []float64
	var opBase, tracedSamples int64
	var allocFrames int
	var mallocs, bytesAlloc uint64
	var ms0, ms1 runtime.MemStats
	deadline := time.Now()
	for p := 0; p < linkSimPasses || time.Now().Before(deadline); p++ {
		if tr != nil {
			runtime.ReadMemStats(&ms0)
		}
		ps := b.pass(nil, 0, p)
		if tr != nil {
			runtime.ReadMemStats(&ms1)
		}
		out.attempted += ps.attempted
		out.failures.add(ps.failures)
		if p < linkSimPasses {
			pooled.add(ps)
		}
		if p == 0 {
			deadline = time.Now().Add(o.duration())
			continue
		}
		plainNs = append(plainNs, ps.frameNs...)
		passRates = append(passRates, float64(ps.frames)/ps.cpu.Seconds())
		passWall = append(passWall, ps.wall.Seconds())
		if tr == nil {
			continue
		}
		mallocs += ms1.Mallocs - ms0.Mallocs
		bytesAlloc += ms1.TotalAlloc - ms0.TotalAlloc
		allocFrames += ps.frames
		tp := b.pass(tr, opBase, p)
		opBase += int64(tp.frames)
		tracedSamples += tp.samples
		out.attempted += tp.attempted
		out.failures.add(tp.failures)
	}
	out.series["frame_ns"] = plainNs
	out.series["pass_frames_per_s"] = passRates
	out.series["pass_wall_s"] = passWall
	if tr == nil {
		setupS, err := childSetup(wLink, o)
		if err != nil {
			return nil, err
		}
		framesPerPass := float64(pooled.frames) / linkSimPasses
		out.e2e["setup_s"] = setupS
		out.e2e["frames_per_s"] = median(passRates)
		out.e2e["frame_us_p50"] = percentile(plainNs, 50) / 1e3
		out.e2e["frame_us_p99"] = percentile(plainNs, 99) / 1e3
		out.e2e["frame_loss"] = float64(pooled.lost) / float64(pooled.frames)
		out.e2e["figures_s"] = framesPerPass / median(passRates)
		out.e2e["sim_speed"] = pooled.airSeconds / float64(pooled.frames) * median(passRates)
		out.e2e["goodput_kbps"] = float64(pooled.ackedBytes) * 8 / pooled.airSeconds / 1e3
		return out, nil
	}

	// Per-layer self time per frame; mac sums its two calls.
	self := selfTimes(tr.spans)
	perFrame := map[int64]map[string]float64{}
	var tracedNs []float64
	var txNs float64
	for i, s := range tr.spans {
		if s.Parent < 0 {
			tracedNs = append(tracedNs, float64(s.End-s.Start))
			continue
		}
		pf := perFrame[s.Op]
		if pf == nil {
			pf = map[string]float64{}
			perFrame[s.Op] = pf
		}
		name := s.Name
		if strings.HasPrefix(name, "mac.") {
			name = "mac"
		}
		pf[name] += float64(self[i])
		if s.Name == "phy.tx" {
			txNs += float64(self[i])
		}
	}
	byLayer := map[string][]float64{}
	var sumNs []float64
	for _, pf := range perFrame {
		sum := 0.0
		for name, ns := range pf {
			byLayer[name] = append(byLayer[name], ns)
			sum += ns
		}
		sumNs = append(sumNs, sum)
	}
	hits, misses := b.sch.CodecCacheStats() // over the whole run, warm-up included
	plainP50 := percentile(plainNs, 50)
	us := func(layer string) float64 { return median(byLayer[layer]) / 1e3 }
	l := out.layer
	l["scheme.codec_us"] = us("scheme.codec")
	l["scheme.codec_hit_ratio"] = float64(hits) / float64(hits+misses)
	l["frame.build_us"] = us("frame.build")
	l["frame.slots"] = float64(pooled.slots) / float64(pooled.frames)
	l["photon.channel_us"] = us("photon.channel")
	l["phy.tx_us"] = us("phy.tx")
	l["phy.samples"] = float64(pooled.samples) / float64(pooled.frames)
	l["phy.tx_ns_per_sample"] = txNs / float64(tracedSamples)
	l["phy.rx_us"] = us("phy.rx")
	l["phy.rx_ok_ratio"] = float64(pooled.decoded) / float64(pooled.frames)
	l["phy.symbol_errors"] = float64(pooled.symbolErrors)
	l["mac.us"] = us("mac")
	l["mac.retransmits"] = float64(pooled.retransmits)
	l["link.allocs_per_frame"] = float64(mallocs) / float64(allocFrames)
	l["link.bytes_per_frame"] = float64(bytesAlloc) / float64(allocFrames)
	l["link.layer_sum_ratio"] = layerSumRatio(median(sumNs), plainP50)
	l["link.trace_overhead"] = percentile(tracedNs, 50)/plainP50 - 1
	out.series["traced_frame_ns"] = tracedNs
	return out, nil
}
