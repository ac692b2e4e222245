package eval

import (
	"math"
	"strings"
	"testing"

	"memcontention/internal/bench"
	"memcontention/internal/topology"
)

func TestAblation(t *testing.T) {
	res, err := EvaluatePlatform(bench.Config{Platform: topology.Henri(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Ablation(res)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4 (model + 3 baselines)", len(rows))
	}
	if rows[0].Name != "threshold-model" {
		t.Error("the paper's model must come first")
	}
	// The threshold-model row scores the same model against the same
	// curves as Table II's "all" columns.
	if math.Abs(rows[0].CommMAPE-res.Errors.CommAll) > 1e-9 || math.Abs(rows[0].CompMAPE-res.Errors.CompAll) > 1e-9 {
		t.Errorf("threshold-model row %.4f%%/%.4f%%, Table II all %.4f%%/%.4f%%",
			rows[0].CommMAPE, rows[0].CompMAPE, res.Errors.CommAll, res.Errors.CompAll)
	}
	for _, r := range rows[1:] {
		if r.Overall <= rows[0].Overall {
			t.Errorf("%s (%.2f%%) must be worse than the threshold model (%.2f%%)",
				r.Name, r.Overall, rows[0].Overall)
		}
	}
	// The no-contention baseline fails hardest on communications.
	for _, r := range rows {
		if r.Name == "no-contention" && r.CommMAPE < 30 {
			t.Errorf("no-contention comm MAPE %.2f%% suspiciously low", r.CommMAPE)
		}
	}
	text := AblationTable("henri", rows).String()
	for _, want := range []string{"threshold-model", "fair-share", "langguth-style", "%"} {
		if !strings.Contains(text, want) {
			t.Errorf("ablation table missing %q", want)
		}
	}
}
