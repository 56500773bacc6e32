package photon

import (
	"fmt"
	"math"
	"math/rand/v2"

	"smartvlc/internal/optics"
)

// Channel is the slot-level detection channel at one operating point:
// fixed link geometry and ambient level.
type Channel struct {
	// SignalPerSlot is the mean photon count contributed by the LED during
	// a full ON slot. Duty-cycle dimming does not change it — ON slots are
	// always at full amplitude, which is why the communication range is
	// independent of the dimming level (paper Fig. 16).
	SignalPerSlot float64
	// AmbientPerSlot is the mean count from ambient light plus dark
	// current, present in every slot.
	AmbientPerSlot float64
}

// MeanFor returns the Poisson mean for an integration window covering
// fraction frac of a slot during which the LED emits at the given relative
// intensity (0..1; fractional values occur during rise/fall transitions).
func (c Channel) MeanFor(intensity, frac float64) float64 {
	return (intensity*c.SignalPerSlot + c.AmbientPerSlot) * frac
}

// SampleCount draws a photon count for such a window.
func (c Channel) SampleCount(rng *rand.Rand, intensity, frac float64) int {
	return Sample(rng, c.MeanFor(intensity, frac))
}

// Scaled returns the channel seen through an integration window covering
// the given fraction of a slot — e.g. the receiver's three-of-four-sample
// window is Scaled(0.75).
func (c Channel) Scaled(frac float64) Channel {
	return Channel{SignalPerSlot: c.SignalPerSlot * frac, AmbientPerSlot: c.AmbientPerSlot * frac}
}

// OptimalThreshold returns the integer count threshold k that minimizes
// P1 + P2, where a slot is decided ON when its count is ≥ k.
func (c Channel) OptimalThreshold() int {
	lo := int(c.AmbientPerSlot)
	hi := int(c.AmbientPerSlot+c.SignalPerSlot) + 2
	bestK, bestErr := hi, math.Inf(1)
	for k := lo; k <= hi; k++ {
		p1, p2 := c.ErrorProbs(k)
		if e := p1 + p2; e < bestErr {
			bestK, bestErr = k, e
		}
	}
	return bestK
}

// ErrorProbs returns the paper's slot error probabilities for a threshold
// k: P1 = P(OFF decoded as ON) = P(Pois(ambient) ≥ k) and
// P2 = P(ON decoded as OFF) = P(Pois(ambient+signal) < k).
func (c Channel) ErrorProbs(k int) (p1, p2 float64) {
	p1 = TailGE(c.AmbientPerSlot, k)
	p2 = CDFLT(c.AmbientPerSlot+c.SignalPerSlot, k)
	return p1, p2
}

// LinkBudget converts link geometry and ambient illuminance into a Channel.
// Its effective constants fold the photodiode responsivity, amplifier and
// ADC noise into an equivalent photon-counting efficiency, calibrated so
// the paper's measured operating point is reproduced: at 3.6 m on-axis
// under bright ambient (≈9700 lux) the slot error probabilities come out
// at the paper's P1 = 9e-5, P2 = 8e-5.
type LinkBudget struct {
	Emitter  optics.Emitter
	Receiver optics.Receiver
	// EtaCountsPerWatt is the effective counts per slot per received watt.
	EtaCountsPerWatt float64
	// AmbientCountsPerLux is the effective ambient counts per slot per lux.
	AmbientCountsPerLux float64
	// DarkCounts is the residual mean count with no light at all.
	DarkCounts float64
}

// DefaultLinkBudget returns the calibrated budget (see package comment and
// DESIGN.md §6 for the calibration). The receiver's detection window
// integrates 3 of the 4 samples per slot (phy.DetectionFraction = 0.75),
// so the per-slot constants are 4/3 of the window-level calibration
// targets: the window then sees ≈66 signal counts and ≈45 ambient counts
// at the paper's 3.6 m / 9700 lux operating point, which puts the optimal-
// threshold slot error probabilities at P1 = 4.6e-5, P2 = 7.9e-5 — the
// paper measures 9e-5 and 8e-5 there.
func DefaultLinkBudget() LinkBudget {
	return LinkBudget{
		Emitter:  optics.DefaultEmitter(),
		Receiver: optics.DefaultReceiver(),
		// Received power at 3.6 m on-axis is ≈ 4.28 µW with the default
		// emitter/receiver; (66/0.75) counts / 4.28 µW ≈ 2.06e7 counts/W.
		EtaCountsPerWatt: 2.06e7,
		// (45/0.75) counts per slot at 9760 lux.
		AmbientCountsPerLux: 45.0 / 0.75 / 9760,
		DarkCounts:          0.07,
	}
}

// ChannelAt builds the detection channel for a geometry and ambient level.
// It rejects an invalid geometry (see optics.Geometry.Validate) and an
// ambient level that is negative, NaN or infinite.
func (b LinkBudget) ChannelAt(g optics.Geometry, ambientLux float64) (Channel, error) {
	if err := g.Validate(); err != nil {
		return Channel{}, err
	}
	// The negated comparison also rejects NaN, which would otherwise flow
	// into every Poisson mean of the channel.
	if !(ambientLux >= 0) || math.IsInf(ambientLux, 1) {
		return Channel{}, fmt.Errorf("photon: ambient %v lux must be finite and non-negative", ambientLux)
	}
	pr := optics.ReceivedPower(b.Emitter, b.Receiver, g)
	return Channel{
		SignalPerSlot:  pr * b.EtaCountsPerWatt,
		AmbientPerSlot: ambientLux*b.AmbientCountsPerLux + b.DarkCounts,
	}, nil
}
