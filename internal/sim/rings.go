package sim

import "smartvlc/internal/telemetry/span"

// This file holds the ring/bitmap structures that replace the seq-keyed
// maps of the session loops (DESIGN.md §14). Ring entries are validated by
// (generation, seq) tags instead of being cleared: a stale entry can never
// be read because the sequence window guarantees seq and seq±seqRingSize
// are never live at once (the ARQ window blocks issue of seq+k until seq's
// fate is settled, k ≤ Window « seqRingSize). Each session builds its own
// rings at generation 1, so a zeroed entry (generation 0) never matches —
// not even seq 0.

// seqRingSize is the span of the seq-keyed rings. It needs only to
// exceed the maximum number of sequence numbers that can be "live"
// (unacked, or awaiting a trailing duplicate ACK) at once — bounded by
// the ARQ window plus the ACK round trip (timeout + side-channel
// latency, a few dozen frames), two orders of magnitude below 1024.
const seqRingSize = 1 << 10

// rootRing replaces the per-session map[uint16]span.ID of frame root
// spans. Entries are tagged with (generation, seq); a lookup that misses
// returns the zero span ID, exactly like the map it replaces.
type rootRing struct {
	gen uint32
	ent [seqRingSize]struct {
		gen uint32
		seq uint16
		id  span.ID
	}
}

// newRootRing returns an empty ring at generation 1.
func newRootRing() *rootRing { return &rootRing{gen: 1} }

func (r *rootRing) set(seq uint16, id span.ID) {
	e := &r.ent[seq&(seqRingSize-1)]
	e.gen, e.seq, e.id = r.gen, seq, id
}

// get returns seq's root span, or zero — matching the empty-map read of
// unarmed sessions, for which the ring is nil.
func (r *rootRing) get(seq uint16) span.ID {
	if r == nil {
		return 0
	}
	e := &r.ent[seq&(seqRingSize-1)]
	if e.gen == r.gen && e.seq == seq {
		return e.id
	}
	return 0
}

// timeRing replaces the broadcast loop's map[uint16]float64 of first
// transmission times.
type timeRing struct {
	gen uint32
	ent [seqRingSize]struct {
		gen uint32
		seq uint16
		at  float64
	}
}

func newTimeRing() *timeRing { return &timeRing{gen: 1} }

func (r *timeRing) set(seq uint16, at float64) {
	e := &r.ent[seq&(seqRingSize-1)]
	e.gen, e.seq, e.at = r.gen, seq, at
}

func (r *timeRing) get(seq uint16) (float64, bool) {
	e := &r.ent[seq&(seqRingSize-1)]
	if e.gen == r.gen && e.seq == seq {
		return e.at, true
	}
	return 0, false
}

func (r *timeRing) drop(seq uint16) {
	e := &r.ent[seq&(seqRingSize-1)]
	if e.gen == r.gen && e.seq == seq {
		e.gen = 0
	}
}

// ackRing replaces the broadcast loop's map[uint16]map[int]bool of
// per-frame receiver acknowledgment sets: one per-receiver bitmask per
// in-window sequence number.
type ackRing struct {
	gen    uint32
	nWords int
	ent    [seqRingSize]struct {
		gen   uint32
		seq   uint16
		count int
		words []uint64
	}
}

func newAckRing(nRx int) *ackRing { return &ackRing{gen: 1, nWords: (nRx + 63) / 64} }

// add marks receiver i as having acked seq and returns the number of
// distinct receivers recorded for it so far.
func (r *ackRing) add(seq uint16, i int) int {
	e := &r.ent[seq&(seqRingSize-1)]
	if e.gen != r.gen || e.seq != seq {
		e.gen, e.seq, e.count = r.gen, seq, 0
		if e.words == nil {
			e.words = make([]uint64, r.nWords)
		} else {
			clear(e.words)
		}
	}
	w, b := i>>6, uint64(1)<<(i&63)
	if e.words[w]&b == 0 {
		e.words[w] |= b
		e.count++
	}
	return e.count
}

// drop forgets seq's acknowledgment set (the map's delete).
func (r *ackRing) drop(seq uint16) {
	e := &r.ent[seq&(seqRingSize-1)]
	if e.gen == r.gen && e.seq == seq {
		e.gen = 0
	}
}

// seqBits is a set over the full 16-bit sequence space (8 KB), replacing
// the broadcast loop's completed-frame map.
type seqBits [1 << 16 / 64]uint64

func (b *seqBits) has(seq uint16) bool { return b[seq>>6]&(1<<(seq&63)) != 0 }
func (b *seqBits) set(seq uint16)      { b[seq>>6] |= 1 << (seq & 63) }
func (b *seqBits) clear(seq uint16)    { b[seq>>6] &^= 1 << (seq & 63) }
