package eval

import (
	"fmt"

	"memcontention/internal/baseline"
	"memcontention/internal/export"
	"memcontention/internal/stats"
)

// AblationRow is one predictor's error summary in the E10 study.
type AblationRow struct {
	Name     string  `json:"name"`
	CommMAPE float64 `json:"comm_mape"`
	CompMAPE float64 `json:"comp_mape"`
	Overall  float64 `json:"overall"` // pooled comm+comp MAPE
}

// Ablation runs the E10 study on one evaluated platform: it scores the
// result's calibrated threshold model and every baseline built from it
// against the measured curves of all placements. It measures nothing.
func Ablation(res *PlatformResult) ([]AblationRow, error) {
	var rows []AblationRow
	for _, p := range baseline.All(res.Model) {
		var commA, commP, compA, compP []float64
		for _, pr := range res.Placements {
			for _, pt := range pr.Measured.Points {
				pred, err := p.Predict(pt.N, pr.Placement)
				if err != nil {
					return nil, fmt.Errorf("eval: ablation: %s: %w", p.Name(), err)
				}
				commA = append(commA, pt.CommPar)
				commP = append(commP, pred.Comm)
				compA = append(compA, pt.CompPar)
				compP = append(compP, pred.Comp)
			}
		}
		row := AblationRow{Name: p.Name()}
		var err error
		if row.CommMAPE, err = stats.MAPE(commA, commP); err != nil {
			return nil, err
		}
		if row.CompMAPE, err = stats.MAPE(compA, compP); err != nil {
			return nil, err
		}
		if row.Overall, err = stats.MAPE(
			append(append([]float64(nil), commA...), compA...),
			append(append([]float64(nil), commP...), compP...),
		); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// AblationTable renders the study.
func AblationTable(platform string, rows []AblationRow) *export.Table {
	t := export.NewTable(
		fmt.Sprintf("ABLATION — predictor errors on %s (all placements)", platform),
		"Predictor", "Comm MAPE", "Comp MAPE", "Overall",
	)
	for _, r := range rows {
		t.AddRow(r.Name, export.Pct(r.CommMAPE), export.Pct(r.CompMAPE), export.Pct(r.Overall))
	}
	return t
}
