// Package mac implements the link layer of SmartVLC: a sliding-window ARQ
// whose acknowledgements and ambient-light reports travel over the
// prototype's ESP8266 Wi-Fi side channel (paper §5.1 — the photodiode
// downlink is VLC, the uplink is Wi-Fi because mobile nodes lack a strong
// enough LED).
package mac

import (
	"math/rand/v2"

	"smartvlc/internal/telemetry/span"
)

// MessageKind discriminates side-channel messages.
type MessageKind int

// Side-channel message kinds.
const (
	// KindAck acknowledges one VLC frame by sequence number.
	KindAck MessageKind = iota
	// KindAmbientReport carries the receiver's sensed ambient level, used
	// by the transmitter's dimming controller (paper Fig. 2).
	KindAmbientReport
)

// Message is one side-channel datagram.
type Message struct {
	// At is the delivery time in seconds (stamped by the channel).
	At float64
	// Kind selects the payload field.
	Kind MessageKind
	// From identifies the sending receiver in multi-receiver sessions.
	From int
	// Seq is the acknowledged frame sequence (KindAck).
	Seq uint16
	// Lux is the reported ambient illuminance (KindAmbientReport).
	Lux float64
}

// SideChannel is the simulated Wi-Fi uplink: per-message latency with
// jitter and independent loss. Delivery order follows delivery time, which
// may reorder messages — receivers must tolerate that, as with real UDP
// datagrams.
type SideChannel struct {
	// LatencySeconds is the base one-way delay (ESP8266 over a busy office
	// WLAN: a few milliseconds).
	LatencySeconds float64
	// JitterSeconds is the uniform extra delay bound.
	JitterSeconds float64
	// LossProb is the independent drop probability.
	LossProb float64
	// Metrics, when non-nil, counts sent and dropped datagrams. Nil (the
	// default) is a no-op.
	Metrics *Metrics
	// Spans, when non-nil, records one "mac/side" span per Send covering
	// the datagram's flight time (Start == End with outcome "dropped" for
	// lost datagrams). Send must be called in deterministic order — the
	// session loops replay buffered sends sequentially — so the spans are
	// byte-identical across identically seeded runs.
	Spans *span.Collector

	rng   *rand.Rand
	queue []Message
	out   []Message
}

// NewSideChannel builds a channel with its own deterministic RNG stream.
func NewSideChannel(latency, jitter, loss float64, rng *rand.Rand) *SideChannel {
	return &SideChannel{LatencySeconds: latency, JitterSeconds: jitter, LossProb: loss, rng: rng}
}

// Send enqueues a message at time now; it may silently drop it.
func (s *SideChannel) Send(now float64, m Message) {
	if s.LossProb > 0 && s.rng.Float64() < s.LossProb {
		s.Metrics.onSideDropped()
		if s.Spans != nil {
			s.Spans.Record(span.Span{
				Name: "mac/side", Seq: sideSeq(m), Start: now, End: now,
				Attrs: []span.Attr{{Key: "kind", Value: kindName(m.Kind)}, {Key: "outcome", Value: "dropped"}},
			})
		}
		return
	}
	s.Metrics.onSideSent()
	d := s.LatencySeconds
	if s.JitterSeconds > 0 {
		d += s.rng.Float64() * s.JitterSeconds
	}
	m.At = now + d
	if s.Spans != nil {
		s.Spans.Record(span.Span{
			Name: "mac/side", Seq: sideSeq(m), Start: now, End: m.At,
			Attrs: []span.Attr{{Key: "kind", Value: kindName(m.Kind)}, {Key: "outcome", Value: "delivered"}},
		})
	}
	s.queue = append(s.queue, m)
}

// sideSeq attributes a side-channel span to a frame sequence: only ACKs
// carry one.
func sideSeq(m Message) int64 {
	if m.Kind == KindAck {
		return int64(m.Seq)
	}
	return -1
}

// kindName labels a message kind for span attributes.
func kindName(k MessageKind) string {
	switch k {
	case KindAck:
		return "ack"
	case KindAmbientReport:
		return "ambient"
	default:
		return "other"
	}
}

// Receive removes and returns all messages delivered by time now, in
// delivery order. The returned slice aliases the channel's scratch buffer
// and is valid until the next Receive call.
func (s *SideChannel) Receive(now float64) []Message {
	sortByAt(s.queue)
	n := 0
	for n < len(s.queue) && s.queue[n].At <= now {
		n++
	}
	s.out = append(s.out[:0], s.queue[:n]...)
	s.queue = s.queue[:copy(s.queue, s.queue[n:])]
	return s.out
}

// sortByAt stable-sorts messages by delivery time. It is a binary
// insertion sort — stable, so ties keep enqueue order exactly as
// sort.SliceStable with an At-less comparator would — chosen because the
// queue is nearly sorted (jitter only reorders neighbors) and because it
// avoids the comparator closure the sort package would allocate on a path
// Receive hits every simulated frame.
func sortByAt(q []Message) {
	for i := 1; i < len(q); i++ {
		m := q[i]
		lo, hi := 0, i
		for lo < hi {
			mid := (lo + hi) / 2
			if q[mid].At <= m.At {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		copy(q[lo+1:i+1], q[lo:i])
		q[lo] = m
	}
}

// Pending returns the number of undelivered messages.
func (s *SideChannel) Pending() int { return len(s.queue) }
