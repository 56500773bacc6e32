package optics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestReceivedPowerInverseSquare(t *testing.T) {
	e, r := DefaultEmitter(), DefaultReceiver()
	p1 := ReceivedPower(e, r, Aligned(1, 0))
	p2 := ReceivedPower(e, r, Aligned(2, 0))
	if math.Abs(p1/p2-4) > 1e-9 {
		t.Fatalf("inverse square violated: %v", p1/p2)
	}
}

func TestReceivedPowerOnAxisFormula(t *testing.T) {
	e := Emitter{PowerWatts: 1, LambertianOrder: 1}
	r := Receiver{AreaM2: 1e-4, FoVDeg: 90}
	got := ReceivedPower(e, r, Aligned(2, 0))
	want := 1.0 * 2 / (2 * math.Pi * 4) * 1e-4
	if math.Abs(got-want) > 1e-15 {
		t.Fatalf("ReceivedPower = %v want %v", got, want)
	}
}

func TestReceivedPowerAngleRolloff(t *testing.T) {
	e, r := DefaultEmitter(), DefaultReceiver()
	prev := math.Inf(1)
	for _, a := range []float64{0, 4, 8, 12, 16, 20} {
		p := ReceivedPower(e, r, Aligned(2, a))
		if p >= prev {
			t.Fatalf("power not decreasing with angle at %v°", a)
		}
		prev = p
	}
	// Half-power semi-angle for m=30 is about 12.2°; the emission term
	// cos^m alone should halve there.
	hp := HalfPowerSemiAngleDeg(30)
	if math.Abs(hp-12.23) > 0.1 {
		t.Fatalf("half power angle = %v", hp)
	}
}

func TestFieldOfViewCutoff(t *testing.T) {
	e := DefaultEmitter()
	r := Receiver{AreaM2: 1e-6, FoVDeg: 30}
	if p := ReceivedPower(e, r, Aligned(1, 31)); p != 0 {
		t.Fatalf("outside FoV power = %v", p)
	}
	if p := ReceivedPower(e, r, Aligned(1, 29)); p <= 0 {
		t.Fatalf("inside FoV power = %v", p)
	}
}

func TestDegenerateGeometry(t *testing.T) {
	e, r := DefaultEmitter(), DefaultReceiver()
	if p := ReceivedPower(e, r, Geometry{DistanceM: 0}); p != 0 {
		t.Fatal("zero distance should give zero power")
	}
	if p := ReceivedPower(e, r, Geometry{DistanceM: 1, IrradianceDeg: 95}); p != 0 {
		t.Fatal("behind the LED should give zero power")
	}
	if err := (Geometry{DistanceM: 0}).Validate(); err == nil {
		t.Fatal("Validate should reject zero distance")
	}
	if err := Aligned(1, 0).Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestValidateRejectsNonFinite pins that NaN and infinite distances or
// angles are errors rather than a silent NaN received power.
func TestValidateRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, g := range []Geometry{
		{DistanceM: nan},
		{DistanceM: inf},
		{DistanceM: -inf},
		{DistanceM: 1, IrradianceDeg: nan},
		{DistanceM: 1, IncidenceDeg: nan},
		{DistanceM: 1, IrradianceDeg: inf},
		{DistanceM: 1, IncidenceDeg: -inf},
	} {
		if err := g.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", g)
		}
	}
}

func TestLambertianOrderRoundTrip(t *testing.T) {
	f := func(raw uint8) bool {
		hp := 5 + float64(raw)/255*60 // 5..65 degrees
		m := LambertianOrderFor(hp)
		back := HalfPowerSemiAngleDeg(m)
		return math.Abs(back-hp) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPowerNonNegativeProperty(t *testing.T) {
	e, r := DefaultEmitter(), DefaultReceiver()
	f := func(dRaw, aRaw uint16) bool {
		d := float64(dRaw)/1000 + 0.01
		a := float64(aRaw) / 65535 * 180
		p := ReceivedPower(e, r, Aligned(d, a))
		return p >= 0 && !math.IsNaN(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
