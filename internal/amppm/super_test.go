package amppm

import (
	"math"
	"testing"
	"testing/quick"

	"smartvlc/internal/mppm"
)

func TestSuperSymbolArithmetic(t *testing.T) {
	// Paper §4.1.2 example: one S(10,0.1) plus one S(10,0.2) gives a
	// super-symbol of 20 slots at level 0.15.
	s := SuperSymbol{S1: mppm.S(10, 0.1), M1: 1, S2: mppm.S(10, 0.2), M2: 1}
	if s.Slots() != 20 {
		t.Fatalf("Slots = %d", s.Slots())
	}
	if got := s.Level(); math.Abs(got-0.15) > 1e-12 {
		t.Fatalf("Level = %v", got)
	}
	// Three S(10,0.2) plus one S(10,0.1): level (3·2+1)/40 = 0.175.
	s = SuperSymbol{S1: mppm.S(10, 0.1), M1: 1, S2: mppm.S(10, 0.2), M2: 3}
	if got := s.Level(); math.Abs(got-0.175) > 1e-12 {
		t.Fatalf("Level = %v", got)
	}
	if s.Bits() != mppm.S(10, 0.1).Bits()+3*mppm.S(10, 0.2).Bits() {
		t.Fatalf("Bits = %d", s.Bits())
	}
}

func TestSuperSymbolSingle(t *testing.T) {
	s := SuperSymbol{S1: mppm.S(20, 0.5), M1: 2}
	if s.Slots() != 40 || s.Level() != 0.5 {
		t.Fatalf("single-pattern super: %v slots, level %v", s.Slots(), s.Level())
	}
	if s.M2 != 0 {
		t.Fatal("expected M2 = 0")
	}
}

func TestSuperSymbolSERDoesNotGrowWithMultiplexing(t *testing.T) {
	// Multiplexing must leave the per-symbol SER untouched; the combined
	// probability of at least one symbol error grows, but per-symbol error
	// equals the constituent SER.
	p1, p2 := 9e-5, 8e-5
	a := mppm.S(10, 0.1)
	single := a.SER(p1, p2)
	s := SuperSymbol{S1: a, M1: 4}
	combined := s.SER(p1, p2)
	want := 1 - math.Pow(1-single, 4)
	if math.Abs(combined-want) > 1e-12 {
		t.Fatalf("SER = %v want %v", combined, want)
	}
}

func TestSuperSymbolValid(t *testing.T) {
	good := SuperSymbol{S1: mppm.S(10, 0.5), M1: 1}
	if !good.Valid() {
		t.Fatal("expected valid")
	}
	bad := []SuperSymbol{
		{S1: mppm.Pattern{N: 0, K: 0}, M1: 1},
		{S1: mppm.S(10, 0.5), M1: 0},
		{S1: mppm.S(10, 0.5), M1: 256},
		{S1: mppm.S(10, 0.5), M1: 1, S2: mppm.Pattern{N: 5, K: 9}, M2: 1},
		{S1: mppm.S(10, 0.5), M1: 1, M2: -1},
	}
	for i, s := range bad {
		if s.Valid() {
			t.Errorf("case %d should be invalid: %v", i, s)
		}
	}
}

func TestSelectExactVertex(t *testing.T) {
	tab := defaultTable(t)
	v := tab.Vertices()[len(tab.Vertices())/2]
	s, err := tab.Select(v.Level)
	if err != nil {
		t.Fatal(err)
	}
	if s.M2 != 0 || s.S1 != v.Pattern {
		t.Fatalf("Select(vertex level) = %v, want single %v", s, v.Pattern)
	}
}

// TestSelectRejectsNaN: a NaN level fails every ordered comparison, so it
// used to slip past the range check and index the envelope at -1.
func TestSelectRejectsNaN(t *testing.T) {
	if _, err := defaultTable(t).Select(math.NaN()); err == nil {
		t.Fatal("Select(NaN) returned no error")
	}
}

func TestSelectAchievesFineResolution(t *testing.T) {
	tab := defaultTable(t)
	// Paper §6.1: Nmax = 500 slots, so dimming resolution ≈ 1/500 = 0.002.
	// Demand 0.004 worst case over a fine sweep of [0.05, 0.95].
	worst := 0.0
	for i := 0; i <= 900; i++ {
		level := 0.05 + 0.9*float64(i)/900
		s, err := tab.Select(level)
		if err != nil {
			t.Fatalf("Select(%v): %v", level, err)
		}
		if s.Slots() > tab.Constraints().NMax() {
			t.Fatalf("Select(%v) = %v exceeds Nmax", level, s)
		}
		if e := math.Abs(s.Level() - level); e > worst {
			worst = e
		}
	}
	if worst > 0.004 {
		t.Fatalf("worst dimming error %v, want ≤ 0.004", worst)
	}
}

func TestSelectRateOnEnvelopeChord(t *testing.T) {
	tab := defaultTable(t)
	// The selected super-symbol's rate should be close to the envelope
	// interpolation at the achieved level (slightly below is possible due
	// to integer multiplicities).
	for _, level := range []float64{0.1, 0.18, 0.33, 0.5, 0.62, 0.7, 0.9} {
		s, err := tab.Select(level)
		if err != nil {
			t.Fatal(err)
		}
		env := tab.EnvelopeRateAt(s.Level())
		if s.NormalizedRate() > env+1e-9 {
			t.Fatalf("level %v: super rate %v above envelope %v", level, s.NormalizedRate(), env)
		}
		if s.NormalizedRate() < env-0.02 {
			t.Fatalf("level %v: super rate %v far below envelope %v", level, s.NormalizedRate(), env)
		}
	}
}

func TestSelectBeatsFixedMPPM(t *testing.T) {
	// AMPPM must dominate the paper's MPPM baseline (fixed N=20) at every
	// one of the 17 evaluation levels.
	tab := defaultTable(t)
	for i := 0; i <= 16; i++ {
		level := 0.1 + 0.05*float64(i)
		s, err := tab.Select(level)
		if err != nil {
			t.Fatal(err)
		}
		k := int(math.Round(level * 20))
		baseline := (mppm.Pattern{N: 20, K: k}).NormalizedRate()
		if s.NormalizedRate() < baseline-1e-9 {
			t.Fatalf("level %v: AMPPM %v below MPPM20 %v", level, s.NormalizedRate(), baseline)
		}
	}
}

func TestSelectOutOfRange(t *testing.T) {
	tab := defaultTable(t)
	if _, err := tab.Select(-0.01); err == nil {
		t.Fatal("expected error below range")
	}
	if _, err := tab.Select(1.01); err == nil {
		t.Fatal("expected error above range")
	}
}

func TestSelectPropertyFlickerSafe(t *testing.T) {
	tab := defaultTable(t)
	cons := tab.Constraints()
	f := func(raw uint16) bool {
		level := float64(raw) / math.MaxUint16
		s, err := tab.Select(level)
		if err != nil {
			return false
		}
		return s.RepetitionHz(cons.SlotSeconds) >= cons.FlickerHz-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDescriptorRoundTrip(t *testing.T) {
	tab := defaultTable(t)
	for _, level := range []float64{0.1, 0.15, 0.175, 0.5, 0.524, 0.77, 0.9} {
		s, err := tab.Select(level)
		if err != nil {
			t.Fatal(err)
		}
		d, err := tab.Descriptor(s)
		if err != nil {
			t.Fatalf("Descriptor(%v): %v", s, err)
		}
		got, err := tab.ParseDescriptor(d)
		if err != nil {
			t.Fatalf("ParseDescriptor: %v", err)
		}
		if got != s {
			t.Fatalf("round trip: got %v want %v", got, s)
		}
	}
}

func TestDescriptorRejectsForeignPattern(t *testing.T) {
	tab := defaultTable(t)
	s := SuperSymbol{S1: mppm.Pattern{N: 63, K: 31}, M1: 1} // not a vertex
	if _, err := tab.Descriptor(s); err == nil {
		t.Fatal("expected error for non-vertex pattern")
	}
}

func TestParseDescriptorRejectsGarbage(t *testing.T) {
	tab := defaultTable(t)
	bad := [][DescriptorSize]byte{
		{255, 1, 0, 0}, // vertex index out of range
		{0, 0, 0, 0},   // m1 = 0
	}
	for _, d := range bad {
		if _, err := tab.ParseDescriptor(d); err == nil {
			t.Errorf("ParseDescriptor(%v) should fail", d)
		}
	}
}

func TestResolutionReporting(t *testing.T) {
	tab := defaultTable(t)
	if r := tab.Resolution(200); r > 0.004 {
		t.Fatalf("Resolution = %v", r)
	}
}
