package analyze

import (
	"strings"
	"testing"

	"smartvlc/internal/telemetry/prof"
)

// sampleSnapshot builds a small profile by exercising a real profiler, so
// the tests cover the same series shapes the sim emits.
func sampleSnapshot(t *testing.T) *prof.Snapshot {
	t.Helper()
	p := prof.New()
	hunt := p.Stage("phy.hunt", "pam4", "0.50", "")
	hunt.Ops(10)
	hunt.Samples(4000)
	dec25 := p.Stage("phy.decode", "pam4", "0.25", "")
	dec25.Ops(10)
	dec25.Samples(1000)
	dec25.Slots(200)
	dec50 := p.Stage("phy.decode", "pam4", "0.50", "")
	dec50.Ops(10)
	dec50.Samples(3000)
	dec50.Slots(500)
	mac := p.Stage("mac.frame", "pam4", "0.50", "")
	mac.Ops(10)
	mac.Bytes(1300)
	return p.Snapshot()
}

func TestReportTopPinned(t *testing.T) {
	var b strings.Builder
	ReportTop(&b, sampleSnapshot(t), Options{Top: 2})
	want := "top stages by samples (4 series, total 8000):\n" +
		"  phy.decode (pam4)                      4000   50.0%\n" +
		"  phy.hunt (pam4)                        4000   50.0%\n"
	if b.String() != want {
		t.Fatalf("report mismatch:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

func TestReportLevelsPinned(t *testing.T) {
	var b strings.Builder
	ReportLevels(&b, sampleSnapshot(t), Options{Metric: prof.MetricSlots})
	want := "per-level slots by stage:\n" +
		"  phy.decode (pam4):\n" +
		"    level 0.25              200  #########\n" +
		"    level 0.50              500  ########################\n"
	if b.String() != want {
		t.Fatalf("report mismatch:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

func TestReportDiffZeroDelta(t *testing.T) {
	a, b := sampleSnapshot(t), sampleSnapshot(t)
	var out strings.Builder
	ReportDiff(&out, a, b, Options{})
	want := "profiles identical: zero delta across 4 series\n"
	if out.String() != want {
		t.Fatalf("zero-delta report = %q, want %q", out.String(), want)
	}
}

func TestReportDiffNamesRegression(t *testing.T) {
	a := sampleSnapshot(t)
	p := prof.New()
	hunt := p.Stage("phy.hunt", "pam4", "0.50", "")
	hunt.Ops(10)
	hunt.Samples(9000) // was 4000: the regression to name
	b := prof.Merge(a, p.Snapshot())
	var out strings.Builder
	ReportDiff(&out, a, b, Options{})
	got := out.String()
	if !strings.Contains(got, "1 of 4 series changed") {
		t.Fatalf("missing changed count:\n%s", got)
	}
	if !strings.Contains(got, "top regression: phy.hunt (pam4 @ 0.50) samples 4000 -> 13000 (+225.0%)") {
		t.Fatalf("missing top-regression line:\n%s", got)
	}
}
