package report

import (
	"strings"
	"testing"

	"memcontention/internal/bench"
	"memcontention/internal/eval"
	"memcontention/internal/topology"
)

func TestWriteReport(t *testing.T) {
	res, err := eval.EvaluatePlatform(bench.Config{Platform: topology.Henri(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := Write(&b, res); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"PLATFORM REPORT — henri",
		"Calibrated model",
		"N_par_max",
		"Communications",
		"threshold-model", // ablation included
		"comp@0/comm@0",
		"measured",
		"model",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// Exactly the two calibration samples are charted: 2 samples × 2
	// charts each.
	if got := strings.Count(out, "measured vs model"); got != 4 {
		t.Errorf("report has %d contention charts, want 4", got)
	}
}

// TestReportByteStable renders the same evaluated platform twice; the
// report (tables, charts, ablations) must be byte-identical.
func TestReportByteStable(t *testing.T) {
	res, err := eval.EvaluatePlatform(bench.Config{Platform: topology.Henri(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var a, b strings.Builder
	if err := Write(&a, res); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b, res); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("two renders of the same report differ")
	}
}
