package eval

import (
	"bytes"
	"testing"

	"memcontention/internal/bench"
	"memcontention/internal/obs"
	"memcontention/internal/topology"
)

func TestEvaluationInstrumentation(t *testing.T) {
	plat, err := topology.ByName("henri")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	res, err := EvaluatePlatform(bench.Config{Platform: plat, Seed: 1, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("memcontention_eval_platforms_total", "", nil).Value(); got != 1 {
		t.Errorf("platforms counter = %v, want 1", got)
	}
	if got := reg.Counter("memcontention_eval_placements_total", "", nil).Value(); got != float64(len(res.Placements)) {
		t.Errorf("placements counter = %v, want %d", got, len(res.Placements))
	}
	// One evaluation measures each placement exactly once: calibration
	// reads the sample curves of the same sweep.
	if got := reg.Counter("memcontention_bench_placements_total", "", nil).Value(); got != float64(len(res.Placements)) {
		t.Errorf("bench placements counter = %v, want %d (one sweep)", got, len(res.Placements))
	}
	points := 0
	for _, pr := range res.Placements {
		points += len(pr.Measured.Points)
	}
	if got := reg.Counter("memcontention_bench_points_total", "", nil).Value(); got != float64(points) {
		t.Errorf("bench points counter = %v, want %d (one sweep)", got, points)
	}
	labels := obs.L{"platform": "henri"}
	if got := reg.Gauge("memcontention_eval_comm_mape_percent", "", labels).Value(); got != res.Errors.CommAll {
		t.Errorf("comm MAPE gauge = %v, want %v", got, res.Errors.CommAll)
	}
	if got := reg.Gauge("memcontention_eval_comp_mape_percent", "", labels).Value(); got != res.Errors.CompAll {
		t.Errorf("comp MAPE gauge = %v, want %v", got, res.Errors.CompAll)
	}
	// One absolute-error histogram pair per placement configuration.
	perConfig := obs.L{"platform": "henri", "placement": res.Placements[0].Placement.String()}
	h := reg.Histogram("memcontention_eval_comm_abs_error_gbps", "", nil, perConfig)
	if got, want := h.Count(), uint64(len(res.Placements[0].Measured.Points)); got != want {
		t.Errorf("per-config error observations = %d, want %d", got, want)
	}
	// The registry must export cleanly end to end: the full stack
	// (bench + calib + eval) registered into one registry.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	stats, err := obs.ParseExposition(buf.String())
	if err != nil {
		t.Fatalf("full-stack exposition does not parse: %v", err)
	}
	for _, family := range []string{
		"memcontention_bench_points_total",
		"memcontention_calib_fits_total",
		"memcontention_eval_comm_mape_percent",
	} {
		if _, ok := stats.Families[family]; !ok {
			t.Errorf("family %s missing from full-stack export", family)
		}
	}
}
