package phy

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"testing"

	"smartvlc/internal/frame"
	"smartvlc/internal/hw"
	"smartvlc/internal/telemetry"
)

// txGolden is the pinned outcome of one transmit corpus stream: an
// FNV-64a digest of the sample column (length first, then every sample as
// a little-endian int64) and the TxMetrics window split.
type txGolden struct {
	hash           uint64
	settled, exact int64
}

// txCase is one stream of the transmit byte-identity corpus.
type txCase struct {
	name  string
	link  Link
	slots []bool
}

// txGoldens pins Transmit and TransmitPCG sample for sample. The values
// were recorded from the two-phase transmitter (classification columns,
// then a run-by-run fill) that the one-pass walk replaced; any change to
// the rng consumption order, the window classification or the per-segment
// slew integration shows up here.
var txGoldens = map[string]txGolden{
	"office/empty/phase=0":             {0x8ed3de0f09a500b0, 8, 0},
	"office/empty/phase=0.25":          {0x171b8b438d85b2d7, 9, 0},
	"office/empty/phase=0.5":           {0xe7776bc0994681da, 9, 0},
	"office/empty/phase=0.75":          {0x81a97bd23c61dcb6, 9, 0},
	"office/single-on/phase=0":         {0x9500f688da34897, 12, 0},
	"office/single-on/phase=0.25":      {0x66dda13286fedc91, 13, 0},
	"office/single-on/phase=0.5":       {0xf3cce8636075c6ec, 13, 0},
	"office/single-on/phase=0.75":      {0x6c4efa2c005184d8, 13, 0},
	"office/single-off/phase=0":        {0x468ad337af7d06ad, 12, 0},
	"office/single-off/phase=0.25":     {0xa9a18b337538e681, 13, 0},
	"office/single-off/phase=0.5":      {0x67f690ff197437a8, 13, 0},
	"office/single-off/phase=0.75":     {0xf69064d3103723aa, 13, 0},
	"office/random/phase=0":            {0xeb8e47292aef6459, 934, 274},
	"office/random/phase=0.25":         {0x3b88763f19fa6c62, 935, 274},
	"office/random/phase=0.5":          {0x3213463d8359f985, 935, 274},
	"office/random/phase=0.75":         {0xbb80506dfc679889, 935, 274},
	"office/runs/phase=0":              {0x2f00936ff8ffe151, 1512, 112},
	"office/runs/phase=0.25":           {0x914907f7e4547b34, 1513, 112},
	"office/runs/phase=0.5":            {0x68581f04ec52f411, 1513, 112},
	"office/runs/phase=0.75":           {0xedf605c5407eb63a, 1513, 112},
	"office/amppm-0.1/phase=0":         {0xd3f2302023d5461e, 7090, 714},
	"office/amppm-0.1/phase=0.25":      {0xeb129e09003ae0b4, 7091, 714},
	"office/amppm-0.1/phase=0.5":       {0xbbe793463b1bc1f4, 7091, 714},
	"office/amppm-0.1/phase=0.75":      {0x519d2e1e93ff0c49, 7091, 714},
	"office/amppm-0.5/phase=0":         {0xc5d3881d452dcd6c, 2266, 770},
	"office/amppm-0.5/phase=0.25":      {0x408ff1ddb6f2fb48, 2267, 770},
	"office/amppm-0.5/phase=0.5":       {0x1fc2ae4538659c08, 2267, 770},
	"office/amppm-0.5/phase=0.75":      {0xf6d84c1c14cc0717, 2267, 770},
	"office/amppm-0.9/phase=0":         {0xfc75869e1287164f, 6986, 666},
	"office/amppm-0.9/phase=0.25":      {0x820fa28dcd16e7ea, 6987, 666},
	"office/amppm-0.9/phase=0.5":       {0xa97baf8be62fb7fb, 6987, 666},
	"office/amppm-0.9/phase=0.75":      {0x9f9d8fcf2a7617fe, 6987, 666},
	"led-slow/random/phase=0.41":       {0xc79dd11a4cb61a87, 588, 621},
	"led-slow/runs/phase=0.41":         {0x2400319b9f707e9c, 1348, 277},
	"led-slow/amppm-0.1/phase=0.41":    {0x5eb41aae3015991, 6239, 1566},
	"led-slow/amppm-0.5/phase=0.41":    {0x2210097c3bfc2bdb, 1334, 1703},
	"led-slow/amppm-0.9/phase=0.41":    {0xcad53e49f6b56406, 6183, 1470},
	"led-asym/random/phase=0.41":       {0xc05485ce9c02727a, 1003, 206},
	"led-asym/runs/phase=0.41":         {0xa2dc1a5b81e422bd, 1541, 84},
	"led-asym/amppm-0.1/phase=0.41":    {0xd89ae68185b0968e, 7270, 535},
	"led-asym/amppm-0.5/phase=0.41":    {0x96857a9756e5ca01, 2460, 577},
	"led-asym/amppm-0.9/phase=0.41":    {0xde08418e12ee0d7b, 7154, 499},
	"led-instant/random/phase=0.41":    {0x3e87d2dbea7df010, 1072, 137},
	"led-instant/runs/phase=0.41":      {0x390d09ec1296a317, 1569, 56},
	"led-instant/amppm-0.1/phase=0.41": {0xb02471119799b7b2, 7448, 357},
	"led-instant/amppm-0.5/phase=0.41": {0xaff0c48ddf987fe4, 2652, 385},
	"led-instant/amppm-0.9/phase=0.41": {0x4794d4ee5893351, 7320, 333},
	"aligned/empty/phase=0":            {0xd6d0e797e9151a00, 8, 0},
	"aligned/empty/phase=0.5":          {0xf62eae101f446b40, 9, 0},
	"aligned/single-on/phase=0":        {0xb9004dab3c252c3c, 12, 0},
	"aligned/single-on/phase=0.5":      {0xae0442d3856b1127, 13, 0},
	"aligned/single-off/phase=0":       {0xb197faf9b3ee487b, 12, 0},
	"aligned/single-off/phase=0.5":     {0x75e86130351f6aac, 13, 0},
	"aligned/random/phase=0":           {0x2fd42301c89e943, 1015, 193},
	"aligned/random/phase=0.5":         {0x4e94118d5ec9eaa1, 935, 274},
	"aligned/runs/phase=0":             {0xb0e141570e832298, 1537, 87},
	"aligned/runs/phase=0.5":           {0x4ef06a93c71f7592, 1513, 112},
	"aligned/amppm-0.1/phase=0":        {0xd5bb19afcbeee893, 7317, 487},
	"aligned/amppm-0.1/phase=0.5":      {0x1c504dd7eea4149d, 7091, 714},
	"aligned/amppm-0.5/phase=0":        {0x44de5e4b27530b5b, 2502, 534},
	"aligned/amppm-0.5/phase=0.5":      {0xb60fc98b3dfbf40d, 2267, 770},
	"aligned/amppm-0.9/phase=0":        {0xfabdd44125e52f1c, 7189, 463},
	"aligned/amppm-0.9/phase=0.5":      {0x3a6449aec931b916, 6987, 666},
	"near/random/phase=0.25":           {0xecb1eb577d3910d8, 935, 274},
	"near/runs/phase=0.25":             {0xe3b6e370bfc7ed86, 1513, 112},
	"near/amppm-0.1/phase=0.25":        {0x9a42f5b842ce8e06, 7091, 714},
	"near/amppm-0.5/phase=0.25":        {0xe9fdd94c6ae38d9f, 2267, 770},
	"near/amppm-0.9/phase=0.25":        {0x5a566952dcbc9f73, 6987, 666},
}

// txCorpus builds the transmit golden corpus: empty, single-slot, random,
// run-structured and AMPPM frame streams at every StartPhase corner, then
// the non-trivial streams again under non-default LED slew, with drift-
// free clocks (slot and sample boundaries coincide, exercising the
// epsilon bookkeeping) and at a second operating point.
func txCorpus(t *testing.T) []txCase {
	t.Helper()
	sch := amppmScheme(t)
	gen := rand.New(rand.NewPCG(2017, 13))
	random := make([]bool, 300)
	for i := range random {
		random[i] = gen.IntN(2) == 1
	}
	var runs []bool
	for v := true; len(runs) < 400; v = !v {
		for n := 1 + gen.IntN(12); n > 0; n-- {
			runs = append(runs, v)
		}
	}
	amppmAt := func(level float64) []bool {
		codec, err := sch.CodecFor(level)
		if err != nil {
			t.Fatal(err)
		}
		payload := make([]byte, 64)
		for i := range payload {
			payload[i] = byte(gen.Uint64())
		}
		fs, err := frame.Build(codec, payload)
		if err != nil {
			t.Fatal(err)
		}
		slots := frame.AppendIdle(nil, codec.Level(), 24)
		slots = append(slots, fs...)
		return frame.AppendIdle(slots, codec.Level(), 24)
	}
	streams := []struct {
		name  string
		slots []bool
	}{
		{"empty", nil},
		{"single-on", []bool{true}},
		{"single-off", []bool{false}},
		{"random", random},
		{"runs", runs},
		{"amppm-0.1", amppmAt(0.1)},
		{"amppm-0.5", amppmAt(0.5)},
		{"amppm-0.9", amppmAt(0.9)},
	}
	office := DefaultLink(channelAt(t, 3, 8000))
	near := DefaultLink(channelAt(t, 1.5, 800))

	var cases []txCase
	add := func(name string, l Link, phase float64, slots []bool) {
		l.StartPhase = phase
		cases = append(cases, txCase{fmt.Sprintf("%s/phase=%g", name, phase), l, slots})
	}
	for _, s := range streams {
		for _, phase := range []float64{0, 0.25, 0.5, 0.75} {
			add("office/"+s.name, office, phase, s.slots)
		}
	}
	leds := []struct {
		name string
		led  hw.LED
	}{
		{"slow", hw.LED{RiseSeconds: 8e-6, FallSeconds: 8e-6}},
		{"asym", hw.LED{RiseSeconds: 3e-6, FallSeconds: 0.7e-6}},
		{"instant", hw.LED{}},
	}
	for _, led := range leds {
		l := office
		l.LED = led.led
		for _, s := range streams[3:] {
			add("led-"+led.name+"/"+s.name, l, 0.41, s.slots)
		}
	}
	aligned := office
	aligned.TxClock.OffsetPPM, aligned.RxClock.OffsetPPM = 0, 0
	for _, s := range streams {
		for _, phase := range []float64{0, 0.5} {
			add("aligned/"+s.name, aligned, phase, s.slots)
		}
	}
	for _, s := range streams[3:] {
		add("near/"+s.name, near, 0.25, s.slots)
	}
	return cases
}

// hashSamples is the FNV-64a digest of a sample column, length first.
func hashSamples(samples []int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(len(samples)))
	h.Write(b[:])
	for _, v := range samples {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// caseSeed derives a case's rng seed from its name, so reordering the
// corpus cannot silently reshuffle the pinned streams.
func caseSeed(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}

// TestTransmitGolden pins both transmit entry points to the recorded
// digests and window counts, and TransmitPCG to Transmit over the same
// generator.
func TestTransmitGolden(t *testing.T) {
	cases := txCorpus(t)
	seen := map[string]bool{}
	for _, c := range cases {
		seen[c.name] = true
		seed := caseSeed(c.name)
		reg := telemetry.New()
		l := c.link
		l.Metrics = NewTxMetrics(reg)
		got := l.Transmit(rand.New(rand.NewPCG(seed, 0x7A)), c.slots)
		g := txGolden{hashSamples(got), l.Metrics.SettledWindows.Value(), l.Metrics.ExactWindows.Value()}
		if g.settled+g.exact != int64(len(got)) {
			t.Errorf("%s: %d settled + %d exact windows for %d samples", c.name, g.settled, g.exact, len(got))
		}
		l.Metrics = NewTxMetrics(telemetry.New())
		pcgOut := l.TransmitPCG(rand.NewPCG(seed, 0x7A), c.slots)
		if h := hashSamples(pcgOut); h != g.hash {
			t.Errorf("%s: TransmitPCG digest %#x, Transmit %#x", c.name, h, g.hash)
		}
		if s, e := l.Metrics.SettledWindows.Value(), l.Metrics.ExactWindows.Value(); s != g.settled || e != g.exact {
			t.Errorf("%s: TransmitPCG windows %d/%d, Transmit %d/%d", c.name, s, e, g.settled, g.exact)
		}
		if want, ok := txGoldens[c.name]; !ok || want != g {
			t.Errorf("%s: got {%#x, %d, %d}, want %+v", c.name, g.hash, g.settled, g.exact, want)
			t.Logf("\t%q: {%#x, %d, %d},", c.name, g.hash, g.settled, g.exact)
		}
		RecycleSamples(got)
		RecycleSamples(pcgOut)
	}
	for name := range txGoldens {
		if !seen[name] {
			t.Errorf("golden %q has no corpus case", name)
		}
	}
}
