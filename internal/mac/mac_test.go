package mac

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"smartvlc/internal/telemetry"
)

func TestSideChannelDelivery(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	sc := NewSideChannel(0.002, 0, 0, rng)
	sc.Send(0.0, Message{Kind: KindAck, Seq: 1})
	sc.Send(0.001, Message{Kind: KindAck, Seq: 2})
	if got := sc.Receive(0.0015); len(got) != 0 {
		t.Fatalf("early delivery: %v", got)
	}
	got := sc.Receive(0.0025)
	if len(got) != 1 || got[0].Seq != 1 {
		t.Fatalf("first delivery: %v", got)
	}
	got = sc.Receive(0.004)
	if len(got) != 1 || got[0].Seq != 2 {
		t.Fatalf("second delivery: %v", got)
	}
	if sc.Pending() != 0 {
		t.Fatal("queue not drained")
	}
}

func TestSideChannelLoss(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	sc := NewSideChannel(0.001, 0, 0.5, rng)
	for i := 0; i < 1000; i++ {
		sc.Send(0, Message{Seq: uint16(i)})
	}
	got := sc.Receive(1)
	if len(got) < 400 || len(got) > 600 {
		t.Fatalf("loss rate off: delivered %d of 1000", len(got))
	}
}

func TestSideChannelJitterBounds(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	sc := NewSideChannel(0.001, 0.004, 0, rng)
	for i := 0; i < 200; i++ {
		sc.Send(0, Message{Seq: uint16(i)})
	}
	if got := sc.Receive(0.0009); len(got) != 0 {
		t.Fatal("delivered before base latency")
	}
	if got := sc.Receive(0.0051); len(got) != 200 {
		t.Fatalf("not all delivered after max jitter: %d", len(got))
	}
}

func TestSenderWindowLimits(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	s, err := NewSender(3, 16, 0.1, rng)
	if err != nil {
		t.Fatal(err)
	}
	var seqs []uint16
	for i := 0; i < 3; i++ {
		seq, body, ok := s.NextFrame(0)
		if !ok || len(body) != 18 {
			t.Fatalf("frame %d: ok=%v len=%d", i, ok, len(body))
		}
		seqs = append(seqs, seq)
	}
	if _, _, ok := s.NextFrame(0.01); ok {
		t.Fatal("window overrun")
	}
	s.OnAck(seqs[0])
	if _, _, ok := s.NextFrame(0.02); !ok {
		t.Fatal("window did not reopen after ack")
	}
	if s.InFlight() != 3 {
		t.Fatalf("inflight %d", s.InFlight())
	}
}

func TestSenderRetransmitsAfterTimeout(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	s, _ := NewSender(1, 16, 0.05, rng)
	seq0, body0, _ := s.NextFrame(0)
	if _, _, ok := s.NextFrame(0.01); ok {
		t.Fatal("premature frame")
	}
	seq1, body1, ok := s.NextFrame(0.06)
	if !ok || seq1 != seq0 {
		t.Fatalf("expected retransmission of %d, got %d ok=%v", seq0, seq1, ok)
	}
	if string(body0) != string(body1) {
		t.Fatal("retransmission differs from original")
	}
	if s.Retransmits() != 1 {
		t.Fatalf("retransmits %d", s.Retransmits())
	}
}

func TestAckAccounting(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 6))
	s, _ := NewSender(8, 100, 0.05, rng)
	seq, _, _ := s.NextFrame(0)
	s.OnAck(seq)
	s.OnAck(seq) // duplicate ack counts once
	if s.AckedPayload() != 100 {
		t.Fatalf("acked payload %d", s.AckedPayload())
	}
	if s.UniqueAcked() != 1 {
		t.Fatalf("unique acked %d", s.UniqueAcked())
	}
}

func TestAckLatencyFromFirstTransmission(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 7))
	s, _ := NewSender(8, 100, 0.05, rng)
	seq, _, _ := s.NextFrame(0.010)
	// Timed-out retransmission must NOT reset the latency origin.
	rseq, _, _ := s.NextFrame(0.070)
	if rseq != seq {
		t.Fatalf("expected retransmission of %d, got %d", seq, rseq)
	}
	lat, ok := s.OnAckAt(seq, 0.090)
	if !ok {
		t.Fatal("first ack should report latency")
	}
	if want := 0.090 - 0.010; math.Abs(lat-want) > 1e-12 {
		t.Fatalf("latency %v, want %v", lat, want)
	}
	// Duplicate ACK: no second latency sample, accounting unchanged.
	if _, ok := s.OnAckAt(seq, 0.120); ok {
		t.Fatal("duplicate ack reported a latency")
	}
	if s.AckedPayload() != 100 || s.UniqueAcked() != 1 {
		t.Fatalf("acked payload %d unique %d", s.AckedPayload(), s.UniqueAcked())
	}
	// Unknown sequence numbers report nothing.
	if _, ok := s.OnAckAt(9999, 0.2); ok {
		t.Fatal("unknown seq reported a latency")
	}
}

func TestAckLatencyMetricsHistogram(t *testing.T) {
	reg := telemetry.New()
	rng := rand.New(rand.NewPCG(6, 8))
	s, _ := NewSender(8, 100, 0.05, rng)
	s.Metrics = NewMetrics(reg)
	seq, _, _ := s.NextFrame(0)
	s.OnAckAt(seq, 0.025)
	h := reg.Histogram("mac_ack_latency_seconds")
	if h.Count() != 1 || math.Abs(h.Sum()-0.025) > 1e-12 {
		t.Fatalf("ack latency histogram count=%d sum=%v", h.Count(), h.Sum())
	}
}

func TestReceiverValidatesAndDedups(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	s, _ := NewSender(8, 32, 0.05, rng)
	r := NewReceiverSide(32)
	seq, body, _ := s.NextFrame(0)

	got, ack := r.OnFrame(body)
	if !ack || got != seq {
		t.Fatalf("OnFrame: %d %v", got, ack)
	}
	if r.DeliveredPayload() != 32 {
		t.Fatalf("delivered %d", r.DeliveredPayload())
	}
	// Duplicate re-acks but does not double count.
	if _, ack := r.OnFrame(body); !ack {
		t.Fatal("duplicate should re-ack")
	}
	if r.DeliveredPayload() != 32 || r.Duplicates() != 1 {
		t.Fatalf("dup accounting: %d %d", r.DeliveredPayload(), r.Duplicates())
	}
	// Corrupted payload that slipped past CRC is rejected.
	bad := append([]byte(nil), body...)
	bad[10] ^= 0xFF
	if _, ack := r.OnFrame(bad); ack {
		t.Fatal("corrupt frame acked")
	}
	if r.Corrupt() != 1 {
		t.Fatalf("corrupt count %d", r.Corrupt())
	}
	if _, ack := r.OnFrame(bad[:5]); ack {
		t.Fatal("short frame acked")
	}
}

func TestSenderValidation(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 8))
	if _, err := NewSender(0, 10, 1, rng); err == nil {
		t.Fatal("window 0 accepted")
	}
	if _, err := NewSender(1, 0, 1, rng); err == nil {
		t.Fatal("payload 0 accepted")
	}
	for _, timeout := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewSender(1, 10, timeout, rng); err == nil {
			t.Fatalf("timeout %v accepted", timeout)
		}
	}
}

func TestEndToEndARQConvergesUnderLoss(t *testing.T) {
	// Run the ARQ over a lossy abstract link (30% frame loss, 10% ack
	// loss): all frames eventually deliver exactly once.
	rng := rand.New(rand.NewPCG(9, 9))
	s, _ := NewSender(4, 8, 0.02, rng)
	r := NewReceiverSide(8)
	sc := NewSideChannel(0.001, 0.001, 0.1, rng)

	now := 0.0
	target := int64(8 * 200)
	for i := 0; i < 20000 && s.AckedPayload() < target; i++ {
		if _, body, ok := s.NextFrame(now); ok {
			if rng.Float64() > 0.3 { // frame survives VLC link
				if seq, ackIt := r.OnFrame(body); ackIt {
					sc.Send(now, Message{Kind: KindAck, Seq: seq})
				}
			}
		}
		now += 0.005
		for _, m := range sc.Receive(now) {
			if m.Kind == KindAck {
				s.OnAck(m.Seq)
			}
		}
	}
	if s.AckedPayload() < target {
		t.Fatalf("ARQ failed to deliver: %d of %d", s.AckedPayload(), target)
	}
	if r.DeliveredPayload() < target {
		t.Fatalf("receiver delivered %d", r.DeliveredPayload())
	}
	if s.Retransmits() == 0 {
		t.Fatal("expected retransmissions under loss")
	}
}

func TestPayloadDeterminism(t *testing.T) {
	f := func(seq uint16) bool {
		a := (&Sender{PayloadBytes: 64}).payloadFor(seq)
		b := (&Sender{PayloadBytes: 64}).payloadFor(seq)
		if len(a) != 66 {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVLCUplinkSerializesMessages(t *testing.T) {
	u := NewVLCUplink(10e3, 100, 2.5, 2.0) // 10 ms per message
	u.Send(0, Message{Seq: 1})
	u.Send(0, Message{Seq: 2}) // queued behind the first
	if got := u.Receive(0.005); len(got) != 0 {
		t.Fatalf("early delivery: %v", got)
	}
	got := u.Receive(0.0101)
	if len(got) != 1 || got[0].Seq != 1 {
		t.Fatalf("first: %v", got)
	}
	got = u.Receive(0.0201)
	if len(got) != 1 || got[0].Seq != 2 {
		t.Fatalf("second (serialized): %v", got)
	}
	if u.Pending() != 0 {
		t.Fatal("pending")
	}
}

func TestVLCUplinkOutOfRangeDropsEverything(t *testing.T) {
	u := NewVLCUplink(10e3, 100, 2.0, 3.5)
	u.Send(0, Message{Seq: 1})
	if u.Pending() != 0 {
		t.Fatal("out-of-range message queued")
	}
	if got := u.Receive(10); len(got) != 0 {
		t.Fatalf("delivered: %v", got)
	}
}

func TestVLCUplinkIdleGapResetsClock(t *testing.T) {
	u := NewVLCUplink(10e3, 100, 2.5, 1.0)
	u.Send(0, Message{Seq: 1})
	u.Send(5, Message{Seq: 2}) // long idle: starts immediately at t=5
	got := u.Receive(5.011)
	if len(got) != 2 {
		t.Fatalf("deliveries: %v", got)
	}
	if got[1].At < 5.0099 || got[1].At > 5.0101 {
		t.Fatalf("second delivery at %v", got[1].At)
	}
}

// TestLongSessionWindowedBookkeeping drives a sender/receiver pair
// through more cycles than the 16-bit sequence space holds. The windowed
// ring/bitmap bookkeeping must keep goodput accounting exact across the
// wrap (each reissued sequence number is a new incarnation and earns
// payload credit again) — the regime where the old map-based bookkeeping
// both grew without bound and undercounted goodput after seq reuse.
func TestLongSessionWindowedBookkeeping(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	s, err := NewSender(8, 4, 0.05, rng)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReceiverSide(4)
	const cycles = 70000 // > 65536: wraps the sequence space
	now := 0.0
	for i := 0; i < cycles; i++ {
		seq, body, ok := s.NextFrame(now)
		if !ok {
			t.Fatalf("cycle %d: window closed with no frames in flight", i)
		}
		gotSeq, ackIt := r.OnFrame(body)
		if !ackIt || gotSeq != seq {
			t.Fatalf("cycle %d: receiver seq=%d ackIt=%v, want seq=%d", i, gotSeq, ackIt, seq)
		}
		s.OnAck(seq)
		now += 0.001
	}
	if s.UniqueAcked() != cycles {
		t.Fatalf("unique acked %d, want %d", s.UniqueAcked(), cycles)
	}
	if s.AckedPayload() != int64(cycles)*4 {
		t.Fatalf("acked payload %d, want %d", s.AckedPayload(), int64(cycles)*4)
	}
	if r.DeliveredPayload() != int64(cycles)*4 {
		t.Fatalf("delivered payload %d, want %d", r.DeliveredPayload(), int64(cycles)*4)
	}
	if r.Duplicates() != 0 || s.Retransmits() != 0 {
		t.Fatalf("dups %d retransmits %d on a clean pipe", r.Duplicates(), s.Retransmits())
	}

	// Steady state is allocation-free: the flight ring, payload scratch
	// and seq bitmaps are all fixed-size, so the heap stops growing with
	// traffic once the pair is warm.
	allocs := testing.AllocsPerRun(1000, func() {
		seq, body, ok := s.NextFrame(now)
		if !ok {
			t.Fatal("window closed")
		}
		if _, ackIt := r.OnFrame(body); !ackIt {
			t.Fatal("frame rejected")
		}
		s.OnAck(seq)
		now += 0.001
	})
	if allocs != 0 {
		t.Fatalf("send/deliver/ack cycle allocates %v times, want 0", allocs)
	}
}
