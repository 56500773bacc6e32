// Columnar batch scratch of the PHY receiver (DESIGN.md §12).
//
// Process derives a prefix-sum column and the three-sample window column
// from it, then decodes frames into per-receiver reusable payload
// buffers. The columns live in receiver-owned scratch so the steady state
// allocates nothing. Transmit keeps no columns: it draws straight into
// the pooled output buffer (see Link.Transmit).
package phy

import "smartvlc/internal/frame"

// Batch is the receiver-owned columnar scratch of Process: the sample
// prefix-sum column, the three-sample window column derived from it, the
// reusable results slice and the per-frame payload buffers the decoded
// bodies land in. It belongs to exactly one Receiver and is recycled on
// every Process call — which is why Process results (and their payloads)
// are only valid until the receiver's next Process call.
type Batch struct {
	// win3[i] = samples[i+1]+samples[i+2]+samples[i+3], i.e. the prefix-
	// sum difference pre[i+4]−pre[i+1] computed as one fused rolling pass.
	win3 []int
	// results is the slice Process returns, reused across calls.
	results []frame.Result
	// payloads holds one reusable backing buffer per decoded frame slot;
	// payloads[k] backs results[k].Payload.
	payloads [][]byte
}

// grownInts returns buf resized to length n, reallocating only when the
// capacity is short.
func grownInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}
