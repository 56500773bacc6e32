// Package sim runs complete SmartVLC sessions: it wires the ambient-light
// trace, the smart-lighting controller, the modulation scheme, the framer,
// the sample-level PHY and the ARQ MAC with its Wi-Fi side channel into a
// single deterministic time-driven simulation, and reports the metrics the
// paper's evaluation plots (per-second throughput, light intensity traces,
// cumulative adaptation counts).
package sim

import (
	"context"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"

	"smartvlc/internal/frame"
	"smartvlc/internal/hw"
	"smartvlc/internal/light"
	"smartvlc/internal/mac"
	"smartvlc/internal/optics"
	"smartvlc/internal/parallel"
	"smartvlc/internal/photon"
	"smartvlc/internal/phy"
	"smartvlc/internal/scheme"
	"smartvlc/internal/stats"
	"smartvlc/internal/telemetry"
	"smartvlc/internal/telemetry/agg"
	"smartvlc/internal/telemetry/flight"
	"smartvlc/internal/telemetry/health"
	"smartvlc/internal/telemetry/prof"
	"smartvlc/internal/telemetry/span"
	"smartvlc/internal/telemetry/vlog"
)

// Config describes one session.
type Config struct {
	// Scheme is the modulation under test.
	Scheme scheme.Scheme
	// Geometry is the TX→RX pose.
	Geometry optics.Geometry
	// Budget converts geometry and ambient into a detection channel.
	Budget photon.LinkBudget

	// FixedLevel runs the link at a constant dimming level (static
	// experiments). Used when Trace is nil.
	FixedLevel float64
	// AmbientLux is the constant ambient level for fixed-level runs.
	AmbientLux float64

	// Trace, when non-nil, drives smart-lighting adaptation: the LED level
	// follows TargetSum − ambient.
	Trace light.Trace
	// TargetSum is the desired total illumination in LED units.
	TargetSum float64
	// FullLEDLux converts the trace's lux to LED units.
	FullLEDLux float64
	// Stepper plans flicker-free level changes (default: perception-domain
	// τ_p = 0.003).
	Stepper light.Stepper

	// PayloadBytes is the application payload per frame (paper: 128).
	PayloadBytes int
	// Window is the ARQ window (frames in flight).
	Window int
	// AckTimeoutSeconds triggers retransmission.
	AckTimeoutSeconds float64
	// Side-channel (Wi-Fi uplink) parameters.
	SideLatencySeconds, SideJitterSeconds float64
	SideLossProb                          float64
	// UplinkVLCBitRate, when positive, replaces the Wi-Fi side channel
	// with a serialized VLC return link at this bit rate — the paper's
	// future-work configuration (§5 footnote 2) once mobile nodes carry
	// capable LEDs.
	UplinkVLCBitRate float64
	// UplinkVLCRangeM is the VLC uplink's reach (0 selects 2.5 m); the
	// weak mobile-node LED is the reason the prototype used Wi-Fi.
	UplinkVLCRangeM float64
	// IdleGapSlots separates consecutive frames on air.
	IdleGapSlots int
	// Seed makes the session reproducible.
	Seed uint64

	// Telemetry, when non-nil, receives the session's metrics and frame-
	// lifecycle events; Run leaves a Snapshot in Result.Telemetry. All
	// timestamps are simulation time, so two runs with identical config
	// and seed produce byte-identical snapshots. Nil (the default)
	// disables instrumentation at zero allocation cost on the hot paths.
	Telemetry *telemetry.Registry

	// Spans, when non-nil, collects the session's causal frame spans
	// (frame/build → tx → channel → hunt → decode → mac/ack, with
	// retransmissions chained parent→child); Run leaves a snapshot in
	// Result.Spans. Like Telemetry, all span times are simulation time
	// and nil is the zero-cost default.
	Spans *span.Collector
	// Flight, when non-nil, arms the anomaly flight recorder: recent
	// frames (slot waveform + receive window) are ringed and dumped as a
	// diagnostic bundle on a decode failure, a hunt miss, a symbol-error
	// burst or an ACK timeout. Arming Flight without Spans uses an
	// internal span collector so bundles still carry the frame trees.
	Flight *flight.Recorder

	// Prof, when non-nil, arms the deterministic stage profiler: sim-domain
	// cost counters (frames, samples, slots, symbols, bytes, scratch
	// growth) accumulate per stage×scheme×level, Run leaves a snapshot in
	// Result.Prof, and the totals are mirrored into Config.Telemetry as
	// prof_*_total counters just before the registry snapshot, so fleet
	// aggregation inherits stage costs through telemetry.Merge. When armed,
	// the session loop also runs under pprof goroutine labels
	// (session/scheme/level) so wall-clock CPU profiles attribute to the
	// same dimensions. All costs are commuting integer adds, so snapshots
	// are byte-identical per (seed, config) for any worker count. Nil (the
	// default) costs one nil check per instrumentation point and zero
	// allocations.
	Prof *prof.Profiler

	// Logs, when non-nil, collects the session's structured log records —
	// the narrative of what the link decided: phy hunt/decode outcomes,
	// mac ACK/retransmit/window events, dimming adjustments, SLO
	// transitions with burn-rate context, flight-recorder triggers and
	// scratch growth. Run leaves a snapshot in Result.Logs. Like
	// every other pillar, all record times are simulation time, receiver-
	// side records are shard-buffered and spliced in deterministic order,
	// and nil is the zero-cost default (one branch per call site, zero
	// allocations).
	Logs *vlog.Logger

	// Health, when non-nil, attaches a link-health monitor: windowed
	// time-series buckets on the simulation clock plus SLO burn-rate
	// alerting; Run leaves the final snapshot in Result.Health. The config
	// is copied per session (safe to share across a fleet); its
	// TSlotSeconds and Registry default to the session's slot clock and
	// Config.Telemetry. When Flight is also armed, every SLO transition to
	// critical triggers a flight-recorder bundle with reason
	// "slo_<objective>". Nil (the default) costs nothing.
	Health *health.Config

	// Watch, when non-nil, streams the session's telemetry deltas into a
	// fleet aggregator while the session runs: the run loop flushes
	// Registry.Delta at every sim-clock window boundary and delivers the
	// final partial window at session end. Requires Telemetry (Run errors
	// otherwise). Flush times are pure functions of the sim clock, so the
	// aggregator's sealed windows are byte-identical per (seed, config)
	// for any worker count. Nil (the default) costs one nil check per
	// frame boundary.
	Watch *agg.Feed
}

// DefaultConfig returns the paper's evaluation settings for a scheme:
// 3 m on-axis link, 128-byte payloads, static office ambient.
func DefaultConfig(s scheme.Scheme) Config {
	return Config{
		Scheme:             s,
		Geometry:           optics.Aligned(3.0, 0),
		Budget:             photon.DefaultLinkBudget(),
		FixedLevel:         0.5,
		AmbientLux:         8000,
		TargetSum:          1.0,
		FullLEDLux:         500,
		Stepper:            light.PerceivedStepper{TauP: light.DefaultTauP},
		PayloadBytes:       128,
		Window:             8,
		AckTimeoutSeconds:  0.25,
		SideLatencySeconds: 0.003,
		SideJitterSeconds:  0.002,
		SideLossProb:       0.01,
		IdleGapSlots:       24,
		Seed:               1,
	}
}

// Result aggregates a session's outcome.
type Result struct {
	// Duration is the simulated air time in seconds.
	Duration float64
	// GoodputBps is acknowledged unique payload bits per second — the
	// throughput the paper reports.
	GoodputBps float64
	// FramesSent, FramesOK, FramesBad count transmissions and receiver
	// outcomes; Retransmits counts ARQ repeats.
	FramesSent, FramesOK, FramesBad, Retransmits int
	// SymbolErrors sums abnormal constituent symbols in accepted frames.
	SymbolErrors int
	// Adjustments is the cumulative count of LED brightness steps.
	Adjustments int

	// Throughput is the per-second goodput series (paper Fig. 19a).
	Throughput stats.Series
	// Ambient, LED and Sum are normalized intensity series (Fig. 19b).
	Ambient, LED, Sum stats.Series
	// AdjustCum is the cumulative adjustment count over time (Fig. 19c).
	AdjustCum stats.Series

	// Telemetry is the session's metric snapshot when Config.Telemetry was
	// set, nil otherwise.
	Telemetry *telemetry.Snapshot
	// Spans is the session's span snapshot when Config.Spans was set, nil
	// otherwise.
	Spans *span.Snapshot
	// Health is the session's health snapshot (windowed series, SLO
	// attainment, alert transitions) when Config.Health was set, nil
	// otherwise.
	Health *health.Snapshot
	// Prof is the session's stage-cost snapshot when Config.Prof was set,
	// nil otherwise.
	Prof *prof.Snapshot
	// Logs is the session's structured log snapshot when Config.Logs was
	// set, nil otherwise.
	Logs *vlog.Snapshot
}

// Run simulates a session for the given air-time duration. When the
// stage profiler is armed the session body executes under pprof
// goroutine labels (session = seed, scheme) so wall-clock CPU profiles
// line up with the deterministic stage profile; the profiling-off path
// adds nothing.
func Run(cfg Config, duration float64) (Result, error) {
	if cfg.Prof == nil || cfg.Scheme == nil {
		return run(cfg, duration)
	}
	var res Result
	var err error
	parallel.Do(func() { res, err = run(cfg, duration) },
		"session", strconv.FormatUint(cfg.Seed, 10),
		"scheme", cfg.Scheme.Name())
	return res, err
}

// profStages caches the per-level stage handles and pprof label context
// of one quantized dimming level, so the frame loop switches attribution
// with field reads instead of map lookups and label allocations.
type profStages struct {
	frame, tx, hunt, decode, mac *prof.Stage
	symbolsPerFrame              int64
	labels                       context.Context
}

// noProf is the all-nil stage set the profiling-off path shares: every
// handle no-ops, so the frame loop reads fields unconditionally.
var noProf profStages

// validate checks the session parameters Run and RunBroadcast share.
// Non-finite values are rejected up front: a NaN duration or level would
// otherwise slip past every ordered comparison below (NaN goodput, an
// out-of-range table index), and an infinite duration never ends.
func (cfg *Config) validate(duration float64) error {
	if cfg.Scheme == nil {
		return fmt.Errorf("sim: nil scheme")
	}
	if !(duration > 0) || math.IsInf(duration, 1) {
		return fmt.Errorf("sim: duration %v must be positive and finite", duration)
	}
	if cfg.PayloadBytes <= 0 {
		return fmt.Errorf("sim: payload %d bytes", cfg.PayloadBytes)
	}
	if !(cfg.FixedLevel >= 0 && cfg.FixedLevel <= 1) || !finite(cfg.TargetSum) {
		return fmt.Errorf("sim: dimming level %v must lie in [0, 1] and target %v be finite", cfg.FixedLevel, cfg.TargetSum)
	}
	// An idle gap longer than the session (at 8 µs per slot) leaves no air
	// time for a frame, and building it could take unbounded memory.
	if cfg.IdleGapSlots < 0 || float64(cfg.IdleGapSlots) > duration/8e-6 {
		return fmt.Errorf("sim: idle gap of %d slots outside [0, session length]", cfg.IdleGapSlots)
	}
	if !finite(cfg.UplinkVLCBitRate) {
		return fmt.Errorf("sim: VLC uplink bit rate %v must be finite", cfg.UplinkVLCBitRate)
	}
	if !(cfg.UplinkVLCRangeM >= 0) || math.IsInf(cfg.UplinkVLCRangeM, 1) {
		return fmt.Errorf("sim: VLC uplink range %v m must be finite and non-negative", cfg.UplinkVLCRangeM)
	}
	if !(cfg.SideLossProb >= 0 && cfg.SideLossProb <= 1) {
		return fmt.Errorf("sim: side-channel loss %v outside [0, 1]", cfg.SideLossProb)
	}
	if !finite(cfg.SideLatencySeconds) || cfg.SideLatencySeconds < 0 ||
		!finite(cfg.SideJitterSeconds) || cfg.SideJitterSeconds < 0 {
		return fmt.Errorf("sim: side-channel latency %v / jitter %v must be finite and non-negative",
			cfg.SideLatencySeconds, cfg.SideJitterSeconds)
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// slotHighWater applies the frame-stage scratch-growth rule: one virtual
// allocation whenever a frame's slot waveform exceeds the session's
// high-water length. The rule is a pure function of the (deterministic)
// waveform lengths, unlike append's real reallocations, so the prof alloc
// counter and the "sim/arena" growth log do not depend on the runtime's
// capacity policy.
type slotHighWater int

func (h *slotHighWater) grew(slotLen int) bool {
	if slotLen > int(*h) {
		*h = slotHighWater(slotLen)
		return true
	}
	return false
}

func run(cfg Config, duration float64) (Result, error) {
	if err := cfg.validate(duration); err != nil {
		return Result{}, err
	}
	if err := cfg.Geometry.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.Watch != nil && cfg.Telemetry == nil {
		return Result{}, fmt.Errorf("sim: Watch requires Telemetry (the feed streams registry deltas)")
	}

	chanPCG := rand.NewPCG(cfg.Seed, 0xC0FFEE)
	chanRng := rand.New(chanPCG)
	sideRng := rand.New(rand.NewPCG(cfg.Seed, 0x51DE))
	macRng := rand.New(rand.NewPCG(cfg.Seed, 0xACED))

	// Instrument handles: every constructor returns nil on a nil registry
	// and every nil handle is a no-op, so the loop below carries them
	// unconditionally at zero cost when telemetry is off.
	reg := cfg.Telemetry
	txm := phy.NewTxMetrics(reg)
	rxm := phy.NewRxMetrics(reg)
	macm := mac.NewMetrics(reg)
	reg.Help("sim_frame_airtime_slots", "On-air length of each transmitted frame, in slots (including the idle gap).")
	reg.Help("sim_goodput_bps", "Acknowledged unique payload bits per second over the whole session.")
	framesTx := reg.Counter("sim_frames_tx_total")
	airtimeH := reg.Histogram("sim_frame_airtime_slots")
	deliveredC := reg.Counter("sim_delivered_bytes_total")
	levelG := reg.Gauge("sim_dimming_level")

	// Span collector: the caller's, or an internal one when only the
	// flight recorder is armed (bundles embed the frame trees either way).
	col := cfg.Spans
	if cfg.Flight != nil && col == nil {
		col = span.NewCollector()
	}

	// Structured log handle: nil-safe like every other pillar. The
	// receiver's records go through a shard buffer (spliced per
	// frame); the sender and the session loop write the logger directly —
	// everything runs on this goroutine, so record order is program order.
	lg := cfg.Logs

	sender, err := mac.NewSender(cfg.Window, cfg.PayloadBytes, cfg.AckTimeoutSeconds, macRng)
	if err != nil {
		return Result{}, err
	}
	sender.Metrics = macm
	sender.Log = lg
	rxSide := mac.NewReceiverSide(cfg.PayloadBytes)
	sideCh := mac.NewSideChannel(cfg.SideLatencySeconds, cfg.SideJitterSeconds, cfg.SideLossProb, sideRng)
	sideCh.Metrics = macm
	sideCh.Spans = col
	var side mac.Uplink = sideCh
	if cfg.UplinkVLCBitRate > 0 {
		rangeM := cfg.UplinkVLCRangeM
		if rangeM <= 0 {
			rangeM = 2.5
		}
		vlc := mac.NewVLCUplink(cfg.UplinkVLCBitRate, 96, rangeM, cfg.Geometry.DistanceM)
		vlc.Metrics = macm
		side = vlc
	}

	var controller *light.Controller
	if cfg.Trace != nil {
		stepper := cfg.Stepper
		if stepper == nil {
			stepper = light.PerceivedStepper{TauP: light.DefaultTauP}
		}
		controller, err = light.NewController(cfg.TargetSum, stepper)
		if err != nil {
			return Result{}, err
		}
		controller.Metrics = light.NewMetrics(reg)
	}
	sensor := hw.NewFilter(hw.OPT101())

	tslot := 8e-6
	level := cfg.FixedLevel
	codecs := newCodecCache(cfg.Scheme)

	// Stage profiler handles, cached per quantized level like the codecs,
	// so the frame loop attributes cost with field reads. Symbol counts
	// come from codec metadata (codecs are shared and cached across
	// sessions, so no per-session state may live on them).
	// The cache keys by the raw float level (like the codecs map), not the
	// rendered label: prof.LevelLabel allocates a string, which would cost
	// the armed hot loop an allocation per frame.
	schemeName := cfg.Scheme.Name()
	if lg.Enabled(vlog.Info) {
		lg.Record(vlog.Record{
			At: 0, Level: vlog.Info, Stage: "sim/session", Msg: "session start", Seq: -1,
			Scheme: schemeName, Dim: fmtAttr(level),
			Attrs: []vlog.Attr{
				{Key: "seed", Value: strconv.FormatUint(cfg.Seed, 10)},
				{Key: "window", Value: strconv.Itoa(cfg.Window)},
				{Key: "payload_bytes", Value: strconv.Itoa(cfg.PayloadBytes)},
			},
		})
	}
	profCache := make(map[float64]*profStages, 4)
	stagesFor := func(l float64, codec frame.PayloadCodec) *profStages {
		if cfg.Prof == nil {
			return &noProf
		}
		if st, ok := profCache[l]; ok {
			return st
		}
		ll := prof.LevelLabel(l)
		st := &profStages{
			frame:  cfg.Prof.Stage("sim.frame", schemeName, ll, ""),
			tx:     cfg.Prof.Stage("phy.tx", schemeName, ll, ""),
			hunt:   cfg.Prof.Stage("phy.hunt", schemeName, ll, ""),
			decode: cfg.Prof.Stage("phy.decode", schemeName, ll, ""),
			mac:    cfg.Prof.Stage("mac.frame", schemeName, ll, ""),
			labels: parallel.LabelContext(
				"session", strconv.FormatUint(cfg.Seed, 10),
				"scheme", schemeName, "level", ll, "stage", "sim.frame"),
		}
		if ps, ok := codec.(interface{ PayloadSymbols(int) int }); ok {
			st.symbolsPerFrame = int64(ps.PayloadSymbols(mac.SeqBytes + cfg.PayloadBytes))
		}
		profCache[l] = st
		return st
	}
	var curStages *profStages

	// Channel state, rebuilt when ambient moves by >2 %. The receiver
	// shell is reconfigured via Reset on each rebuild — exactly
	// NewReceiver's state, with the scratch columns retained.
	var link phy.Link
	rx := new(phy.Receiver)
	lastLux := math.Inf(-1)
	ensureChannel := func(lux float64) error {
		if lastLux > 0 && math.Abs(lux-lastLux) <= 0.02*lastLux {
			return nil
		}
		ch, err := cfg.Budget.ChannelAt(cfg.Geometry, lux)
		if err != nil {
			return err
		}
		link = phy.DefaultLink(ch)
		link.Metrics = txm
		rx.Reset(ch, cfg.Scheme.Factory())
		rx.Metrics = rxm
		rxm.OnChannel(rx.Threshold())
		lastLux = lux
		return nil
	}

	var res Result
	var deliveredAt []float64 // ack times for the per-second series
	var slotBuf []bool        // frame slot waveform, reused across frames
	var slotHigh slotHighWater

	// Span state: per-sequence root IDs (retransmit chains link onto
	// them), the receiver-side shard buffer, and the sample duration for
	// converting receiver sample indices to simulation time.
	tsamp := tslot / float64(phy.Oversample)
	var roots *rootRing // nil-safe: unarmed sessions read the zero span ID
	var rxSpanBuf *span.Buffer
	if col != nil {
		roots, rxSpanBuf = newRootRing(), new(span.Buffer)
	}
	var rxLogBuf *vlog.Buffer
	if lg != nil {
		rxLogBuf = new(vlog.Buffer)
		rxLogBuf.Arm(lg.Min())
	}
	prevRetx := 0

	// Link-health monitor. The config is copied so a fleet can share one
	// *health.Config; clock and registry default to the session's.
	// Critical SLO transitions are parked in pendingSLO and consumed by
	// the flight-recorder block below, so every breach ships a replayable
	// bundle.
	var mon *health.Monitor
	var pendingSLO []health.Transition
	if cfg.Health != nil {
		hc := *cfg.Health
		if hc.TSlotSeconds <= 0 {
			hc.TSlotSeconds = tslot
		}
		if hc.Registry == nil {
			hc.Registry = reg
		}
		if cfg.Flight != nil || lg != nil {
			userAlert := hc.OnAlert
			hc.OnAlert = func(t health.Transition) {
				if userAlert != nil {
					userAlert(t)
				}
				// Every state change logs at the severity of the state it
				// enters, carrying the burn-rate context that justified it.
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
				if cfg.Flight != nil && t.To == health.StateCritical {
					pendingSLO = append(pendingSLO, t)
				}
			}
		}
		mon = health.NewMonitor(hc)
	}

	now := 0.0
	lastRecord := -1.0
	const recordEvery = 0.25

	// Latest ambient report received from the receiver over the Wi-Fi
	// side channel (paper Fig. 2). The transmitter prefers it over its
	// own (OPT101) reading because the receiver sits in the area of
	// interest; it falls back to local sensing when reports go stale.
	// Reports carry photon noise, so the firmware averages them over
	// ~0.3 s before they drive the dimming controller — the controller's
	// step is only ~0.005, far below the raw report jitter.
	remoteLux, remoteAt := 0.0, -1.0
	smoothed, smoothedSet := 0.0, false
	lastStep := 0.0

	for now < duration {
		mon.Tick(now)
		cfg.Watch.Tick(now, reg)
		// Ambient and adaptation at this frame boundary.
		lux := cfg.AmbientLux
		if cfg.Trace != nil {
			lux = cfg.Trace.LuxAt(now)
		}
		if err := ensureChannel(lux); err != nil {
			return Result{}, err
		}
		ambientNorm := light.Normalize(lux, cfg.FullLEDLux)
		src := sensor.Step(ambientNorm, 0.01)
		if remoteAt >= 0 && now-remoteAt < 0.5 {
			src = light.Normalize(remoteLux, cfg.FullLEDLux)
		}
		if !smoothedSet {
			smoothed, smoothedSet = src, true
		} else {
			alpha := 1 - math.Exp(-(now-lastStep)/0.3)
			smoothed += alpha * (src - smoothed)
		}
		lastStep = now
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
		mon.ObserveLevel(now, level)

		// Record series.
		if now-lastRecord >= recordEvery {
			lastRecord = now
			res.Ambient.Add(now, ambientNorm)
			res.LED.Add(now, level)
			res.Sum.Add(now, ambientNorm+level)
			adj := 0
			if controller != nil {
				adj = controller.Adjustments()
			}
			res.AdjustCum.Add(now, float64(adj))
		}

		// Side-channel deliveries.
		for _, m := range side.Receive(now) {
			switch m.Kind {
			case mac.KindAck:
				if lat, known := sender.OnAckAt(m.Seq, m.At); known {
					mon.ObserveAck(m.At, lat)
					// Exemplar: the tail of the ack-latency histogram links
					// back to the frame that caused it (root span when spans
					// are armed, frame seq and sim time always).
					if macm != nil {
						macm.AckLatency.AttachExemplar(lat, telemetry.Exemplar{
							At: m.At, Seq: int64(m.Seq), Span: int64(roots.get(m.Seq)),
						})
					}
				}
				reg.Emit(m.At, "frame/ack", int64(m.Seq))
				if col != nil {
					col.Record(span.Span{
						Name: "mac/ack", Parent: roots.get(m.Seq), Seq: int64(m.Seq),
						Start: m.At, End: m.At,
					})
				}
			case mac.KindAmbientReport:
				remoteLux, remoteAt = m.Lux, m.At
			}
		}

		seq, body, ok := sender.NextFrame(now)
		if !ok {
			// Window full: the LED idles at the dimming level.
			now += cfg.AckTimeoutSeconds / 8
			continue
		}
		retx := sender.Retransmits() > prevRetx
		prevRetx = sender.Retransmits()
		codec, err := codecs.codecFor(level)
		if err != nil {
			return Result{}, fmt.Errorf("sim: level %v: %w", level, err)
		}
		// Switch cost attribution (and the wall-clock profile labels) to
		// this frame's quantized level. The handles feed commuting atomic
		// adds, so totals stay worker-count invariant.
		st := stagesFor(level, codec)
		if st != curStages {
			curStages = st
			if cfg.Prof != nil {
				parallel.SetLabels(st.labels)
			}
			sender.Prof = st.mac
		}
		link.Prof = st.tx
		rx.SetProf(st.hunt, st.decode)
		reg.Emit(now, "frame/build", int64(seq))
		slots, err := frame.BuildAppend(slotBuf[:0], codec, body)
		if err != nil {
			return Result{}, err
		}
		slots = frame.AppendIdle(slots, codec.Level(), cfg.IdleGapSlots)
		slotBuf = slots
		st.frame.Ops(1)
		st.frame.Slots(int64(len(slots)))
		st.frame.Bytes(int64(len(body)))
		st.frame.Symbols(st.symbolsPerFrame)
		if slotHigh.grew(len(slots)) {
			st.frame.Allocs(1)
			if lg.Enabled(vlog.Debug) {
				lg.Record(vlog.Record{
					At: now, Level: vlog.Debug, Stage: "sim/arena",
					Msg: "frame slot scratch grew", Seq: int64(seq),
					Attrs: []vlog.Attr{{Key: "slots", Value: strconv.Itoa(len(slots))}},
				})
			}
		}
		airtime := float64(len(slots)) * tslot
		framesTx.Inc()
		airtimeH.Observe(float64(len(slots)))
		reg.Emit(now, "frame/tx", int64(seq))
		mon.ObserveTx(now, len(slots), retx)

		// Root span for this transmission; a retransmission chains onto
		// the previous transmission's root.
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
		// Exemplar: an airtime outlier bucket jumps to the frame's root span.
		airtimeH.AttachExemplar(float64(len(slots)), telemetry.Exemplar{
			At: now, Seq: int64(seq), Span: int64(root),
		})

		link.StartPhase = chanRng.Float64()
		samples := link.TransmitPCG(chanPCG, slots)
		if col != nil {
			col.Record(span.Span{
				Name: "frame/channel", Parent: root, Seq: int64(seq),
				Start: now, End: now + float64(len(samples))*tsamp,
			})
			rxSpanBuf.Reset()
			rx.SetSpanWindow(rxSpanBuf, now, tsamp)
		}
		if lg != nil {
			rxLogBuf.Reset()
			rx.SetLogWindow(rxLogBuf, now, tsamp)
		}
		results, rxStats := rx.Process(samples)
		if n := int64(len(results)); n > 0 {
			st.decode.Symbols(st.symbolsPerFrame * n)
		}
		decodeClass := ""
		if col != nil {
			// Extract the decode outcome before Splice consumes the buffer;
			// the flight recorder keys its trigger on it.
			decodeClass = flight.DecodeClass(rxSpanBuf.Spans())
			col.Splice(rxSpanBuf, root, int64(seq))
		}
		if lg != nil {
			lg.Splice(rxLogBuf, int64(root), int64(seq), "")
		}
		if cfg.Flight != nil {
			cfg.Flight.Observe(flight.Capture{
				Seq: int64(seq), Start: now, Level: level,
				Threshold: rx.Threshold(), Slots: slots, Samples: samples,
			})
			reason := ""
			switch {
			case len(pendingSLO) > 0:
				// An SLO breach outranks the per-frame reasons: it is the
				// rarer event and names the objective that burned.
				reason = "slo_" + pendingSLO[0].Objective
				pendingSLO = pendingSLO[:0]
			case rxStats.FramesBad > 0:
				reason = "decode"
			case len(results) == 0:
				reason = "hunt"
			case cfg.Flight.Config().SERThreshold > 0 && rxStats.SymbolErrors >= cfg.Flight.Config().SERThreshold:
				reason = "ser"
			case retx:
				reason = "ack_timeout"
			}
			if reason != "" {
				// Log the trigger BEFORE taking the snapshot, so the bundle's
				// own logs.ndjson tail ends with the record explaining it.
				if lg.Enabled(vlog.Warn) {
					lg.Record(vlog.Record{
						At: now + airtime, Level: vlog.Warn, Stage: "sim/flight",
						Msg: "flight bundle triggered: " + reason, Seq: int64(seq),
						Span: int64(root), Scheme: schemeName, Dim: fmtAttr(level),
						Attrs: []vlog.Attr{{Key: "class", Value: decodeClass}},
					})
				}
				var msnap *telemetry.Snapshot
				if reg != nil {
					msnap = reg.Snapshot()
				}
				meta := flight.Meta{
					Reason: reason, Class: decodeClass, Seq: int64(seq),
					At: now + airtime, Seed: cfg.Seed, Scheme: cfg.Scheme.Name(),
					Level: level, Threshold: rx.Threshold(),
					TSlotSeconds: tslot, PayloadBytes: cfg.PayloadBytes,
				}
				if _, err := cfg.Flight.Trigger(meta, col.Snapshot(), msnap, logSnap(lg)); err != nil {
					return Result{}, err
				}
			}
		}
		phy.RecycleSamples(samples)
		res.FramesOK += rxStats.FramesOK
		res.FramesBad += rxStats.FramesBad
		res.SymbolErrors += rxStats.SymbolErrors
		// Symbol count proxy: decoded payload bytes of accepted frames —
		// the denominator the paper's Eq. 3 SER bound is stated against.
		mon.ObserveRx(now+airtime, rxStats.FramesOK, rxStats.FramesBad, rxStats.SymbolErrors, rxStats.FramesOK*cfg.PayloadBytes)
		for i := 0; i < rxStats.FramesBad; i++ {
			reg.Emit(now+airtime, "frame/bad", -1)
		}
		for _, r := range results {
			before := rxSide.DeliveredPayload()
			gotSeq, ackIt := rxSide.OnFrame(r.Payload)
			if !ackIt {
				continue
			}
			reg.Emit(now+airtime, "frame/decode", int64(gotSeq))
			side.Send(now+airtime, mac.Message{Kind: mac.KindAck, Seq: gotSeq})
			if d := rxSide.DeliveredPayload() - before; d > 0 {
				deliveredAt = append(deliveredAt, now+airtime)
				deliveredC.Add(d)
				mon.ObserveDelivered(now+airtime, d*8)
			}
		}
		// The receiver reports its sensed ambient level (estimated from
		// OFF detection windows) back over the Wi-Fi uplink.
		if counts, ok := rx.AmbientWindowCounts(); ok {
			amb := counts/phy.AmbientWindowFraction - cfg.Budget.DarkCounts
			if amb < 0 {
				amb = 0
			}
			estLux := amb / cfg.Budget.AmbientCountsPerLux
			side.Send(now+airtime, mac.Message{Kind: mac.KindAmbientReport, Lux: estLux})
		}
		now += airtime
	}

	// Drain trailing acks so goodput reflects everything delivered.
	for _, m := range side.Receive(now + 1) {
		if m.Kind == mac.KindAck {
			if lat, known := sender.OnAckAt(m.Seq, m.At); known {
				mon.ObserveAck(m.At, lat)
				if macm != nil {
					macm.AckLatency.AttachExemplar(lat, telemetry.Exemplar{
						At: m.At, Seq: int64(m.Seq), Span: int64(roots.get(m.Seq)),
					})
				}
			}
			reg.Emit(m.At, "frame/ack", int64(m.Seq))
			if col != nil {
				col.Record(span.Span{
					Name: "mac/ack", Parent: roots.get(m.Seq), Seq: int64(m.Seq),
					Start: m.At, End: m.At,
				})
			}
		}
	}

	res.Duration = now
	res.FramesSent = sender.FramesSent()
	res.Retransmits = sender.Retransmits()
	res.GoodputBps = float64(sender.AckedPayload()) * 8 / now
	if controller != nil {
		res.Adjustments = controller.Adjustments()
	}
	res.Throughput = throughputSeries(deliveredAt, cfg.PayloadBytes, now)
	if mon != nil {
		res.Health = mon.Finish(now)
		// A critical transition in the run's last instants may not have met
		// a later frame to consume it; it still ships a bundle.
		if cfg.Flight != nil && len(pendingSLO) > 0 {
			var msnap *telemetry.Snapshot
			if reg != nil {
				msnap = reg.Snapshot()
			}
			meta := flight.Meta{
				Reason: "slo_" + pendingSLO[0].Objective, Seq: -1,
				At: now, Seed: cfg.Seed, Scheme: cfg.Scheme.Name(),
				Level: level, Threshold: rx.Threshold(),
				TSlotSeconds: tslot, PayloadBytes: cfg.PayloadBytes,
			}
			if lg.Enabled(vlog.Warn) {
				lg.Record(vlog.Record{
					At: now, Level: vlog.Warn, Stage: "sim/flight",
					Msg: "flight bundle triggered: " + meta.Reason, Seq: -1,
					Scheme: schemeName, Dim: fmtAttr(level),
				})
			}
			if _, err := cfg.Flight.Trigger(meta, col.Snapshot(), msnap, logSnap(lg)); err != nil {
				return Result{}, err
			}
		}
	}
	if cfg.Prof != nil {
		// Mirror stage costs into the registry before its snapshot so fleet
		// aggregation carries them through telemetry.Merge.
		cfg.Prof.Publish(reg)
		res.Prof = cfg.Prof.Snapshot()
	}
	if reg != nil {
		reg.Gauge("sim_goodput_bps").Set(res.GoodputBps)
		reg.Gauge("sim_duration_seconds").Set(res.Duration)
		// Final partial window after the session gauges, so the fleet
		// aggregator's last delta carries the end-of-run levels.
		cfg.Watch.Finish(now, reg)
		res.Telemetry = reg.Snapshot()
	}
	if cfg.Spans != nil {
		res.Spans = cfg.Spans.Snapshot()
	}
	if lg != nil {
		if lg.Enabled(vlog.Info) {
			lg.Record(vlog.Record{
				At: now, Level: vlog.Info, Stage: "sim/session", Msg: "session end", Seq: -1,
				Scheme: schemeName, Dim: fmtAttr(level),
				Attrs: []vlog.Attr{
					{Key: "goodput_bps", Value: fmtAttr(res.GoodputBps)},
					{Key: "frames_ok", Value: strconv.Itoa(res.FramesOK)},
					{Key: "frames_bad", Value: strconv.Itoa(res.FramesBad)},
					{Key: "retransmits", Value: strconv.Itoa(res.Retransmits)},
				},
			})
		}
		res.Logs = lg.Snapshot()
	}
	return res, nil
}

// fmtAttr formats a float attribute value deterministically (shortest
// form that round-trips, like the trace exports).
func fmtAttr(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// sloLogLevel maps the SLO state a transition enters to the severity its
// log record carries.
func sloLogLevel(s health.State) vlog.Level {
	switch s {
	case health.StateCritical:
		return vlog.Error
	case health.StateWarning:
		return vlog.Warn
	}
	return vlog.Info
}

// logSnap snapshots a logger for a flight bundle, keeping the nil-omits-
// the-file contract (a nil logger yields a nil snapshot, not an empty
// one).
func logSnap(lg *vlog.Logger) *vlog.Snapshot {
	if lg == nil {
		return nil
	}
	return lg.Snapshot()
}

// throughputSeries buckets delivery events into one-second bins, the way
// the paper's prototype "reports the average throughput every second".
func throughputSeries(deliveredAt []float64, payloadBytes int, duration float64) stats.Series {
	s := stats.Series{Name: "throughput_bps"}
	nBins := int(math.Ceil(duration))
	if nBins == 0 {
		return s
	}
	bins := make([]float64, nBins)
	for _, t := range deliveredAt {
		b := int(t)
		if b >= nBins {
			b = nBins - 1
		}
		bins[b] += float64(payloadBytes) * 8
	}
	for i, v := range bins {
		s.Add(float64(i), v)
	}
	return s
}
