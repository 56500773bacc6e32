package telemetry_test

import (
	"io"
	"testing"

	"smartvlc/internal/amppm"
	"smartvlc/internal/scheme"
	"smartvlc/internal/sim"
	"smartvlc/internal/telemetry"
)

// FuzzParseSnapshot feeds arbitrary bytes to the snapshot parser behind
// -metrics-out files and the /metrics.json endpoint, then drives every
// consumer of a parsed snapshot: the exemplar drill-down, the Prometheus
// exposition, the canonical JSON export and Merge.
func FuzzParseSnapshot(f *testing.F) {
	s, err := scheme.NewAMPPM(amppm.DefaultConstraints())
	if err != nil {
		f.Fatal(err)
	}
	cfg := sim.DefaultConfig(s)
	cfg.Telemetry = telemetry.New()
	res, err := sim.Run(cfg, 0.05)
	if err != nil {
		f.Fatal(err)
	}
	seed, err := res.Telemetry.JSON()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"histograms":[{"name":"h","count":1,"buckets":[{"index":-3,"count":1}],"exemplars":[{"bucket":999,"exemplars":[{"value":1}]}]}]}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		snap, err := telemetry.ParseSnapshot(b)
		if err != nil {
			return
		}
		if err := snap.WriteExemplars(io.Discard); err != nil {
			t.Fatal(err)
		}
		if err := snap.WritePrometheus(io.Discard, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := snap.JSON(); err != nil {
			t.Fatal(err)
		}
		if _, err := telemetry.Merge(snap, snap).JSON(); err != nil {
			t.Fatal(err)
		}
	})
}
