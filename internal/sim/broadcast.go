package sim

import (
	"context"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"

	"smartvlc/internal/frame"
	"smartvlc/internal/light"
	"smartvlc/internal/mac"
	"smartvlc/internal/optics"
	"smartvlc/internal/parallel"
	"smartvlc/internal/phy"
	"smartvlc/internal/stats"
	"smartvlc/internal/telemetry"
	"smartvlc/internal/telemetry/health"
	"smartvlc/internal/telemetry/prof"
	"smartvlc/internal/telemetry/span"
	"smartvlc/internal/telemetry/vlog"
)

// ReceiverPose places one receiver of a broadcast session.
type ReceiverPose struct {
	// Geometry is this receiver's pose relative to the luminaire.
	Geometry optics.Geometry
	// AmbientScale scales the session's ambient trace at this desk (a
	// receiver near the window sees more sunlight than one in a corner).
	// Zero means 1.
	AmbientScale float64
}

func (p ReceiverPose) scale() float64 {
	if p.AmbientScale <= 0 {
		return 1
	}
	return p.AmbientScale
}

// BroadcastConfig extends Config to several receivers under one
// luminaire — the paper's architecture (Fig. 2) has receivers plural:
// each senses ambient light and acknowledges frames over the Wi-Fi
// uplink. The embedded Config's Geometry is ignored.
type BroadcastConfig struct {
	Config
	// Receivers lists the receiver poses; at least one is required.
	Receivers []ReceiverPose
	// Workers bounds the goroutines used for the per-receiver PHY work of
	// each frame window. Zero or one keeps the session single-threaded; a
	// negative value selects GOMAXPROCS. Results and telemetry are
	// byte-identical for every value — see the fan-out below.
	Workers int
}

// ReceiverOutcome summarizes one receiver's session.
type ReceiverOutcome struct {
	// FramesOK counts frames this receiver decoded.
	FramesOK int
	// DeliveredBps is this receiver's unique-payload rate.
	DeliveredBps float64
	// MeanSum is the mean of ambient+LED at this desk, in LED units.
	MeanSum float64
	// Health is this receiver's link-health snapshot (link label "rx<i>")
	// when Config.Health was set; nil otherwise.
	Health *health.Snapshot
}

// BroadcastResult aggregates a broadcast session.
type BroadcastResult struct {
	// Duration is the simulated air time.
	Duration float64
	// ReliableGoodputBps counts only frames acknowledged by EVERY
	// receiver (reliable multicast semantics).
	ReliableGoodputBps float64
	// PerReceiver holds each receiver's outcome.
	PerReceiver []ReceiverOutcome
	// Adjustments is the cumulative LED step count.
	Adjustments int
	// FramesSent includes retransmissions.
	FramesSent int
	// LED is the luminaire level over time.
	LED stats.Series
	// Telemetry is the session's metrics snapshot when Config.Telemetry
	// was set; nil otherwise.
	Telemetry *telemetry.Snapshot
	// Spans is the session's span snapshot when Config.Spans was set; nil
	// otherwise. Per-receiver decode spans carry an "rx" attribute and are
	// byte-identical for every Workers value: each receiver's spans are
	// buffered on its shard and spliced in receiver order, exactly like
	// the side-channel outbox replay.
	Spans *span.Snapshot
	// Health merges the per-receiver health series (counts summed, rates
	// recomputed, SLOs re-evaluated over the merged series) when
	// Config.Health was set; nil otherwise. Per-receiver snapshots stay on
	// PerReceiver[i].Health. All health observations happen in the
	// sequential merge phase, so the series are byte-identical for every
	// Workers value.
	Health *health.Snapshot
	// Prof is the session's stage-cost snapshot when Config.Prof was set;
	// nil otherwise. Receiver-side stages carry shard "rx<i>", so the
	// profile attributes PHY cost per receiver; the commuting atomic adds
	// keep it byte-identical for every Workers value.
	Prof *prof.Snapshot
	// Logs is the session's structured log snapshot when Config.Logs was
	// set; nil otherwise. Receiver-side records carry shard "rx<i>" and
	// are byte-identical for every Workers value: each receiver's records
	// buffer on its shard (vlog.Buffer) and are spliced in receiver order,
	// exactly like the span shards and the side-channel outbox replay.
	Logs *vlog.Snapshot
}

// rxOutbox buffers one frame window's side-channel traffic for one
// broadcast receiver. The PHY work of a window runs concurrently per
// receiver, but side.Send consumes the shared sideRng (loss and jitter
// draws), so the sends are recorded here and replayed sequentially in
// receiver order — exactly the sequence the serial loop produces.
type rxOutbox struct {
	ackSeqs []uint16
	// newSeqs are the sequences newly delivered this window (ackSeqs
	// minus re-acked duplicates) — what the health monitor counts as
	// delivered payload and an ACK latency sample.
	newSeqs    []uint16
	stats      phy.Stats
	ambient    float64
	hasAmbient bool
}

// bcRxState is one broadcast receiver's session state.
type bcRxState struct {
	rng      *rand.Rand
	pcg      *rand.PCG // rng's generator, for the PHY fast path
	link     phy.Link
	rx       *phy.Receiver
	macRx    *mac.Receiver
	lastLux  float64
	remote   float64 // last reported ambient lux
	reported bool
	sumAcc   float64
	sumN     int
	out      rxOutbox
	// Per-receiver stage-profiler handles (shard "rx<i>"), switched in
	// the sequential phase on dimming-level changes. Nil when the
	// profiler is unarmed; all adders no-op on nil.
	profTx, profHunt, profDecode *prof.Stage
	// spanBuf accumulates this shard's channel/hunt/decode spans for
	// one frame; the merge loop splices it in receiver order.
	spanBuf span.Buffer
	// logBuf accumulates this shard's log records for one frame, spliced
	// in receiver order like spanBuf so log snapshots stay byte-identical
	// for any worker count.
	logBuf vlog.Buffer
}

// bcRxProf is one receiver shard's stage-profiler handle set at one
// dimming level.
type bcRxProf struct{ tx, hunt, decode *prof.Stage }

// bcLevelProf is the broadcast loop's per-dimming-level profiler state:
// shared frame/mac handles, per-receiver shard handles, and the pre-built
// pprof label context for the level.
type bcLevelProf struct {
	frame, mac *prof.Stage
	rx         []bcRxProf
	symbols    int64 // modulation symbols per frame body at this level
	labels     context.Context
}

// RunBroadcast simulates a multi-receiver session. The dimming controller
// follows the *minimum* ambient reported across receivers, so every desk
// reaches at least the target illumination; frames are retransmitted
// until all receivers acknowledge them. When the stage profiler is armed
// the session body executes under pprof goroutine labels, like Run.
func RunBroadcast(cfg BroadcastConfig, duration float64) (BroadcastResult, error) {
	if cfg.Prof == nil || cfg.Scheme == nil {
		return runBroadcast(cfg, duration)
	}
	var res BroadcastResult
	var err error
	parallel.Do(func() { res, err = runBroadcast(cfg, duration) },
		"session", strconv.FormatUint(cfg.Seed, 10),
		"scheme", cfg.Scheme.Name())
	return res, err
}

func runBroadcast(cfg BroadcastConfig, duration float64) (BroadcastResult, error) {
	if len(cfg.Receivers) == 0 {
		return BroadcastResult{}, fmt.Errorf("sim: broadcast needs at least one receiver")
	}
	if err := cfg.validate(duration); err != nil {
		return BroadcastResult{}, err
	}
	for _, p := range cfg.Receivers {
		if err := p.Geometry.Validate(); err != nil {
			return BroadcastResult{}, err
		}
	}

	nRx := len(cfg.Receivers)
	sender, err := mac.NewSender(cfg.Window, cfg.PayloadBytes, cfg.AckTimeoutSeconds,
		rand.New(rand.NewPCG(cfg.Seed, 0xACED2)))
	if err != nil {
		return BroadcastResult{}, err
	}
	side := mac.NewSideChannel(cfg.SideLatencySeconds, cfg.SideJitterSeconds, cfg.SideLossProb,
		rand.New(rand.NewPCG(cfg.Seed, 0x51DE2)))

	// Span collection. The flight recorder is a single-receiver facility
	// (Config.Flight is ignored here); spans cover the broadcast fan-out
	// fully, one decode subtree per receiver.
	col := cfg.Spans
	side.Spans = col

	// Instrumentation: with a nil registry every handle below is nil and
	// every recording call is a no-op (see internal/telemetry). All
	// receivers share one set of PHY instruments; per-receiver splits ride
	// on the event trace's sequence field instead of label cardinality.
	reg := cfg.Telemetry
	txm := phy.NewTxMetrics(reg)
	rxm := phy.NewRxMetrics(reg)
	macm := mac.NewMetrics(reg)
	sender.Metrics = macm
	side.Metrics = macm

	// Structured log handle: the sender and the sequential phases of the
	// loop write the logger directly (program order is deterministic);
	// receiver-side records buffer on each shard and splice in receiver
	// order below.
	lg := cfg.Logs
	sender.Log = lg
	reg.Help("sim_frame_airtime_slots", "Per-frame on-air length in slots, idle gap included.")
	reg.Help("sim_reliable_goodput_bps", "Payload rate acknowledged by every receiver.")
	framesTx := reg.Counter("sim_frames_tx_total")
	airtimeH := reg.Histogram("sim_frame_airtime_slots")
	levelG := reg.Gauge("sim_dimming_level")

	var controller *light.Controller
	if cfg.Trace != nil {
		stepper := cfg.Stepper
		if stepper == nil {
			stepper = light.PerceivedStepper{TauP: light.DefaultTauP}
		}
		controller, err = light.NewController(cfg.TargetSum, stepper)
		if err != nil {
			return BroadcastResult{}, err
		}
		controller.Metrics = light.NewMetrics(reg)
	}

	// Per-receiver shards (see bcRxState): each owns its rng, link,
	// receiver and outbox. Shard i draws from the stream parallel.PCG
	// derives for its index, independent of every sibling.
	rxs := make([]*bcRxState, nRx)
	for i := range rxs {
		pcg := parallel.PCG(cfg.Seed, 0xBEEF00, i)
		rxs[i] = &bcRxState{
			rng:     rand.New(pcg),
			pcg:     pcg,
			rx:      new(phy.Receiver),
			macRx:   mac.NewReceiverSide(cfg.PayloadBytes),
			lastLux: math.Inf(-1),
		}
		if lg != nil {
			rxs[i].logBuf.Arm(lg.Min())
		}
	}
	ensure := func(i int, lux float64) error {
		st := rxs[i]
		if st.lastLux > 0 && math.Abs(lux-st.lastLux) <= 0.02*st.lastLux {
			return nil
		}
		ch, err := cfg.Budget.ChannelAt(cfg.Receivers[i].Geometry, lux)
		if err != nil {
			return err
		}
		st.link = phy.DefaultLink(ch)
		st.link.Metrics = txm
		st.rx.Reset(ch, cfg.Scheme.Factory())
		st.rx.Metrics = rxm
		rxm.OnChannel(st.rx.Threshold())
		st.lastLux = lux
		return nil
	}

	// Reliable multicast bookkeeping: which receivers acked each frame,
	// which frames every receiver has acked, and each sequence number's
	// first transmission time — ring/bitmap-backed over the 16-bit
	// sequence space instead of the maps they replace, so steady-state
	// sessions stop growing the heap with traffic.
	acked, complete, firstTx := newAckRing(nRx), new(seqBits), newTimeRing()
	reliableBytes := int64(0)

	level := cfg.FixedLevel
	codecs := newCodecCache(cfg.Scheme)
	smoothed, smoothedSet := 0.0, false
	lastT := 0.0

	// Stage-profiler handles, cached per dimming level. The frame/mac
	// stages carry shard "" (they run once per frame on the sequential
	// path); the PHY stages carry shard "rx<i>" so the profile attributes
	// receiver-side cost per desk. The pprof label context is pre-built per
	// level and switched with SetLabels, which allocates nothing per frame.
	schemeName := cfg.Scheme.Name()
	seedStr := strconv.FormatUint(cfg.Seed, 10)
	if lg.Enabled(vlog.Info) {
		lg.Record(vlog.Record{
			At: 0, Level: vlog.Info, Stage: "sim/session", Msg: "session start", Seq: -1,
			Scheme: schemeName, Dim: fmtAttr(level),
			Attrs: []vlog.Attr{
				{Key: "seed", Value: seedStr},
				{Key: "window", Value: strconv.Itoa(cfg.Window)},
				{Key: "payload_bytes", Value: strconv.Itoa(cfg.PayloadBytes)},
				{Key: "receivers", Value: strconv.Itoa(nRx)},
			},
		})
	}
	// Keyed by the raw float level, like the codec cache: rendering the
	// level label per frame would allocate in the armed hot loop.
	bcProfCache := make(map[float64]*bcLevelProf, 4)
	var curProf *bcLevelProf
	var profSymbols int64 // read by processRx; written only between fan-outs

	// One persistent pool per session when parallel receivers are asked
	// for: Workers 0 and 1 stay on the caller's goroutine, negative picks
	// GOMAXPROCS, and the count never exceeds the receiver fan-out.
	workers := cfg.Workers
	if workers < 0 {
		workers = parallel.Workers(0)
	}
	if workers > nRx {
		workers = nRx
	}
	var pool *parallel.Pool
	if workers > 1 {
		if cfg.Prof != nil {
			// Label the pooled workers once at spawn so wall-clock CPU
			// profiles attribute broadcast PHY shards to this session.
			pool = parallel.NewPoolLabeled(workers,
				"session", seedStr, "scheme", schemeName, "stage", "phy.rx")
		} else {
			pool = parallel.NewPool(workers)
		}
		defer pool.Close()
	}

	var res BroadcastResult
	var slotBuf []bool // frame slot waveform, reused across frames
	var slotHigh slotHighWater
	now := 0.0
	lastRecord := -1.0

	// Span state (see Config.Spans): per-sequence roots for retransmit
	// chaining and the sample duration for receiver-side span times.
	tsamp := 8e-6 / float64(phy.Oversample)
	var roots *rootRing // nil-safe: unarmed sessions read the zero span ID
	if col != nil {
		roots = newRootRing()
	}
	prevRetx := 0

	// Per-receiver health monitors (nil entries are no-ops). Every
	// observation happens in the sequential phases of the loop — never
	// inside processRx — which is what keeps the series worker-count
	// invariant. firstTx records each sequence number's first transmission
	// so a receiver's ACK latency spans retransmissions.
	mons := make([]*health.Monitor, nRx)
	if cfg.Health != nil {
		for i := range mons {
			hc := *cfg.Health
			if hc.TSlotSeconds <= 0 {
				hc.TSlotSeconds = 8e-6
			}
			if hc.Registry == nil {
				hc.Registry = reg
			}
			hc.Link = "rx" + strconv.Itoa(i)
			if lg != nil {
				userAlert := hc.OnAlert
				hc.OnAlert = func(t health.Transition) {
					if userAlert != nil {
						userAlert(t)
					}
					// All health observations run on the sequential phases of
					// the loop, so these records land in deterministic order
					// like the single-receiver path's.
					if lv := sloLogLevel(t.To); lg.Enabled(lv) {
						lg.Record(vlog.Record{
							At: t.At, Level: lv, Stage: "sim/slo",
							Msg: "slo " + t.Objective + ": " + t.From.String() + " -> " + t.To.String(),
							Seq: -1, Shard: t.Link, Scheme: schemeName, Dim: fmtAttr(level),
							Attrs: []vlog.Attr{
								{Key: "burn_fast", Value: fmtAttr(t.BurnFast)},
								{Key: "burn_slow", Value: fmtAttr(t.BurnSlow)},
								{Key: "value", Value: fmtAttr(t.Value)},
								{Key: "target", Value: fmtAttr(t.Target)},
							},
						})
					}
				}
			}
			mons[i] = health.NewMonitor(hc)
		}
	}

	for now < duration {
		for _, m := range mons {
			m.Tick(now)
		}
		baseLux := cfg.AmbientLux
		if cfg.Trace != nil {
			baseLux = cfg.Trace.LuxAt(now)
		}
		// The controller follows the minimum ambient across desks, using
		// remote reports where available.
		minAmb := math.Inf(1)
		for i, p := range cfg.Receivers {
			lux := baseLux * p.scale()
			if err := ensure(i, lux); err != nil {
				return BroadcastResult{}, err
			}
			amb := light.Normalize(lux, cfg.FullLEDLux)
			if rxs[i].reported {
				amb = light.Normalize(rxs[i].remote, cfg.FullLEDLux)
			}
			minAmb = math.Min(minAmb, amb)
		}
		if !smoothedSet {
			smoothed, smoothedSet = minAmb, true
		} else {
			alpha := 1 - math.Exp(-(now-lastT)/0.2)
			smoothed += alpha * (minAmb - smoothed)
		}
		lastT = now
		if controller != nil {
			prevLevel := level
			level, _ = controller.StepToward(smoothed)
			if level != prevLevel && lg.Enabled(vlog.Debug) {
				lg.Record(vlog.Record{
					At: now, Level: vlog.Debug, Stage: "sim/dim",
					Msg: "dimming level adjusted", Seq: -1,
					Scheme: schemeName, Dim: fmtAttr(level),
					Attrs: []vlog.Attr{{Key: "from", Value: fmtAttr(prevLevel)}},
				})
			}
		}
		levelG.Set(level)
		for _, m := range mons {
			m.ObserveLevel(now, level)
		}

		if now-lastRecord >= 0.25 {
			lastRecord = now
			res.LED.Add(now, level)
			for i, p := range cfg.Receivers {
				amb := light.Normalize(baseLux*p.scale(), cfg.FullLEDLux)
				rxs[i].sumAcc += amb + level
				rxs[i].sumN++
			}
		}

		for _, m := range side.Receive(now) {
			switch m.Kind {
			case mac.KindAck:
				if complete.has(m.Seq) {
					continue
				}
				if acked.add(m.Seq, m.From) == nRx {
					complete.set(m.Seq)
					acked.drop(m.Seq)
					reliableBytes += int64(cfg.PayloadBytes)
					if lat, known := sender.OnAckAt(m.Seq, m.At); known && macm != nil {
						macm.AckLatency.AttachExemplar(lat, telemetry.Exemplar{
							At: m.At, Seq: int64(m.Seq), Span: int64(roots.get(m.Seq)),
						})
					}
					// Every receiver has delivered (and been observed) by
					// the time the last ACK lands; the latency origin can go.
					firstTx.drop(m.Seq)
					reg.Emit(m.At, "frame/ack", int64(m.Seq))
					if col != nil {
						col.Record(span.Span{
							Name: "mac/ack", Parent: roots.get(m.Seq), Seq: int64(m.Seq),
							Start: m.At, End: m.At,
						})
					}
				}
			case mac.KindAmbientReport:
				rxs[m.From].remote, rxs[m.From].reported = m.Lux, true
			}
		}

		seq, body, ok := sender.NextFrame(now)
		if !ok {
			now += cfg.AckTimeoutSeconds / 8
			continue
		}
		reg.Emit(now, "frame/build", int64(seq))
		codec, err := codecs.codecFor(level)
		if err != nil {
			return BroadcastResult{}, err
		}
		if cfg.Prof != nil {
			lp := bcProfCache[level]
			if lp == nil {
				ll := prof.LevelLabel(level)
				lp = &bcLevelProf{
					frame: cfg.Prof.Stage("sim.frame", schemeName, ll, ""),
					mac:   cfg.Prof.Stage("mac.frame", schemeName, ll, ""),
					rx:    make([]bcRxProf, nRx),
					labels: parallel.LabelContext("session", seedStr,
						"scheme", schemeName, "level", ll, "stage", "sim.frame"),
				}
				for i := range lp.rx {
					shard := "rx" + strconv.Itoa(i)
					lp.rx[i] = bcRxProf{
						tx:     cfg.Prof.Stage("phy.tx", schemeName, ll, shard),
						hunt:   cfg.Prof.Stage("phy.hunt", schemeName, ll, shard),
						decode: cfg.Prof.Stage("phy.decode", schemeName, ll, shard),
					}
				}
				if ps, okS := codec.(interface{ PayloadSymbols(int) int }); okS {
					lp.symbols = int64(ps.PayloadSymbols(mac.SeqBytes + cfg.PayloadBytes))
				}
				bcProfCache[level] = lp
			}
			if lp != curProf {
				curProf = lp
				parallel.SetLabels(lp.labels)
				sender.Prof = lp.mac
				profSymbols = lp.symbols
				for i, st := range rxs {
					st.profTx, st.profHunt, st.profDecode = lp.rx[i].tx, lp.rx[i].hunt, lp.rx[i].decode
				}
			}
		}
		slots, err := frame.BuildAppend(slotBuf[:0], codec, body)
		if err != nil {
			return BroadcastResult{}, err
		}
		slots = frame.AppendIdle(slots, codec.Level(), cfg.IdleGapSlots)
		slotBuf = slots
		grew := slotHigh.grew(len(slots))
		if grew && lg.Enabled(vlog.Debug) {
			lg.Record(vlog.Record{
				At: now, Level: vlog.Debug, Stage: "sim/arena",
				Msg: "frame slot scratch grew", Seq: int64(seq),
				Attrs: []vlog.Attr{{Key: "slots", Value: strconv.Itoa(len(slots))}},
			})
		}
		if curProf != nil {
			curProf.frame.Ops(1)
			curProf.frame.Slots(int64(len(slots)))
			curProf.frame.Bytes(int64(len(body)))
			curProf.frame.Symbols(curProf.symbols)
			if grew {
				curProf.frame.Allocs(1)
			}
		}
		airtime := float64(len(slots)) * 8e-6
		framesTx.Inc()
		airtimeH.Observe(float64(len(slots)))
		reg.Emit(now, "frame/tx", int64(seq))

		retx := sender.Retransmits() > prevRetx
		prevRetx = sender.Retransmits()
		if !retx {
			// A fresh sequence number supersedes any prior incarnation
			// (post-wrap reuse): forget its completed/acked state so late
			// bookkeeping from the old incarnation can't leak into the new
			// one. Before the seq space wraps these are no-ops.
			complete.clear(seq)
			acked.drop(seq)
			firstTx.set(seq, now)
		}
		for _, m := range mons {
			m.ObserveTx(now, len(slots), retx)
		}
		var root span.ID
		if col != nil {
			parent := span.ID(0)
			if retx {
				parent = roots.get(seq)
			}
			desc := codec.Descriptor()
			root = col.Record(span.Span{
				Name: "frame", Parent: parent, Seq: int64(seq),
				Start: now, End: now + airtime,
				Attrs: []span.Attr{
					{Key: "level", Value: strconv.FormatFloat(level, 'g', -1, 64)},
					{Key: "scheme", Value: cfg.Scheme.Name()},
					{Key: "pattern", Value: hex.EncodeToString(desc[:])},
					{Key: "slots", Value: strconv.Itoa(len(slots))},
				},
			})
			roots.set(seq, root)
			col.Record(span.Span{Name: "frame/build", Parent: root, Seq: int64(seq), Start: now, End: now})
			if retx {
				col.Record(span.Span{Name: "mac/retx", Parent: root, Seq: int64(seq), Start: now, End: now})
			}
			col.Record(span.Span{Name: "frame/tx", Parent: root, Seq: int64(seq), Start: now, End: now + airtime})
		}
		airtimeH.AttachExemplar(float64(len(slots)),
			telemetry.Exemplar{At: now, Seq: int64(seq), Span: int64(root)})

		// Per-receiver PHY + decode: each receiver owns its rng, link,
		// receiver state and outbox, so the bodies are independent. The
		// only shared state they touch is the PHY metrics counters, whose
		// atomic adds commute — a snapshot cannot tell in which order they
		// landed. Everything order-sensitive (side-channel sends drawing on
		// sideRng, trace emits) goes through the outbox replay below.
		processRx := func(i int) {
			st := rxs[i]
			st.out = rxOutbox{ackSeqs: st.out.ackSeqs[:0], newSeqs: st.out.newSeqs[:0]}
			// Stage-cost attribution: all prof adds are commuting atomics, so
			// they may run inside the concurrent fan-out without affecting
			// snapshot bytes. ensure() rebuilds link/rx on lux moves, so the
			// handles are (re)attached per frame. Nil handles no-op.
			st.link.Prof = st.profTx
			st.rx.SetProf(st.profHunt, st.profDecode)
			st.link.StartPhase = st.rng.Float64()
			samples := st.link.TransmitPCG(st.pcg, slots)
			if col != nil {
				// Shard-local span sequence: channel first, then whatever
				// hunt/decode spans the receiver emits. Parent 0 and Seq -1
				// resolve to this frame's root at splice time.
				st.spanBuf.Reset()
				st.spanBuf.Record(span.Span{
					Name: "frame/channel", Seq: -1,
					Start: now, End: now + float64(len(samples))*tsamp,
				})
				st.rx.SetSpanWindow(&st.spanBuf, now, tsamp)
			}
			if lg != nil {
				// Shard-local log records: Span 0, Seq -1 and Shard ""
				// resolve to this frame's root / seq / "rx<i>" at splice
				// time, in the sequential merge below.
				st.logBuf.Reset()
				st.rx.SetLogWindow(&st.logBuf, now, tsamp)
			}
			results, st2 := st.rx.Process(samples)
			st.out.stats = st2
			if n := int64(len(results)); n > 0 {
				st.profDecode.Symbols(profSymbols * n)
			}
			phy.RecycleSamples(samples)
			for _, r := range results {
				before := st.macRx.DeliveredPayload()
				if gotSeq, ackIt := st.macRx.OnFrame(r.Payload); ackIt {
					st.out.ackSeqs = append(st.out.ackSeqs, gotSeq)
					if st.macRx.DeliveredPayload() > before {
						st.out.newSeqs = append(st.out.newSeqs, gotSeq)
					}
				}
			}
			if counts, okA := st.rx.AmbientWindowCounts(); okA {
				amb := counts/phy.AmbientWindowFraction - cfg.Budget.DarkCounts
				if amb < 0 {
					amb = 0
				}
				st.out.ambient = amb / cfg.Budget.AmbientCountsPerLux
				st.out.hasAmbient = true
			}
		}
		if pool != nil {
			pool.Run(nRx, processRx)
		} else {
			for i := 0; i < nRx; i++ {
				processRx(i)
			}
		}
		// Deterministic merge: replay the buffered sends in receiver order,
		// reproducing the serial loop's event and sideRng sequence exactly.
		for i := range rxs {
			out := &rxs[i].out
			if col != nil {
				col.Splice(&rxs[i].spanBuf, root, int64(seq), span.Attr{Key: "rx", Value: strconv.Itoa(i)})
			}
			if lg != nil {
				lg.Splice(&rxs[i].logBuf, int64(root), int64(seq), "rx"+strconv.Itoa(i))
			}
			mons[i].ObserveRx(now+airtime, out.stats.FramesOK, out.stats.FramesBad,
				out.stats.SymbolErrors, out.stats.FramesOK*cfg.PayloadBytes)
			for _, newSeq := range out.newSeqs {
				mons[i].ObserveDelivered(now+airtime, int64(cfg.PayloadBytes)*8)
				if ft, known := firstTx.get(newSeq); known {
					// Latency to this receiver's acknowledgment, from the
					// sequence number's first transmission.
					mons[i].ObserveAck(now+airtime, now+airtime-ft)
				}
			}
			for _, seq := range out.ackSeqs {
				reg.Emit(now+airtime, "frame/decode", int64(seq))
				side.Send(now+airtime, mac.Message{Kind: mac.KindAck, From: i, Seq: seq})
			}
			if out.hasAmbient {
				side.Send(now+airtime, mac.Message{
					Kind: mac.KindAmbientReport,
					From: i,
					Lux:  out.ambient,
				})
			}
		}
		now += airtime
	}
	for _, m := range side.Receive(now + 1) {
		if m.Kind != mac.KindAck || complete.has(m.Seq) {
			continue
		}
		if acked.add(m.Seq, m.From) == nRx {
			complete.set(m.Seq)
			reliableBytes += int64(cfg.PayloadBytes)
		}
	}

	res.Duration = now
	res.FramesSent = sender.FramesSent()
	res.ReliableGoodputBps = float64(reliableBytes) * 8 / now
	if controller != nil {
		res.Adjustments = controller.Adjustments()
	}
	for i := range rxs {
		o := ReceiverOutcome{
			DeliveredBps: float64(rxs[i].macRx.DeliveredPayload()) * 8 / now,
		}
		if rxs[i].sumN > 0 {
			o.MeanSum = rxs[i].sumAcc / float64(rxs[i].sumN)
		}
		o.FramesOK = int(rxs[i].macRx.DeliveredPayload()) / cfg.PayloadBytes
		o.Health = mons[i].Finish(now)
		res.PerReceiver = append(res.PerReceiver, o)
	}
	if cfg.Health != nil {
		perRx := make([]*health.Snapshot, 0, nRx)
		for _, o := range res.PerReceiver {
			perRx = append(perRx, o.Health)
		}
		res.Health = health.Merge(perRx...)
	}
	if cfg.Prof != nil {
		// Mirror stage totals into the registry before the snapshot, so
		// telemetry.Merge carries the profile fleet-wide.
		cfg.Prof.Publish(reg)
		res.Prof = cfg.Prof.Snapshot()
	}
	if reg != nil {
		reg.Gauge("sim_reliable_goodput_bps").Set(res.ReliableGoodputBps)
		reg.Gauge("sim_duration_seconds").Set(res.Duration)
		res.Telemetry = reg.Snapshot()
	}
	if col != nil {
		res.Spans = col.Snapshot()
	}
	if lg != nil {
		if lg.Enabled(vlog.Info) {
			lg.Record(vlog.Record{
				At: now, Level: vlog.Info, Stage: "sim/session", Msg: "session end", Seq: -1,
				Scheme: schemeName, Dim: fmtAttr(level),
				Attrs: []vlog.Attr{
					{Key: "reliable_goodput_bps", Value: fmtAttr(res.ReliableGoodputBps)},
					{Key: "frames_sent", Value: strconv.Itoa(res.FramesSent)},
					{Key: "receivers", Value: strconv.Itoa(nRx)},
				},
			})
		}
		res.Logs = lg.Snapshot()
	}
	return res, nil
}
