// Package report assembles the complete per-platform evaluation document:
// calibrated parameters, error statistics, the ablation study and compact
// ASCII views of the figures — everything a reader needs to audit one
// platform's reproduction in a single text artifact.
package report

import (
	"fmt"
	"io"

	"memcontention/internal/eval"
	"memcontention/internal/export"
	"memcontention/internal/plot"
)

// Write renders the full report for one evaluated platform. Every section,
// the ablation study included, is computed from the result alone; nothing
// is measured again.
func Write(w io.Writer, res *eval.PlatformResult) error {
	fmt.Fprintf(w, "================================================================\n")
	fmt.Fprintf(w, "PLATFORM REPORT — %s\n", res.Platform)
	fmt.Fprintf(w, "================================================================\n\n")

	if err := export.ParamsTable("Calibrated model (§III-A parameters)", res.Model).WriteText(w); err != nil {
		return err
	}

	fmt.Fprintf(w, "\nPrediction errors (Table II row):\n")
	e := res.Errors
	errTable := export.NewTable("",
		"", "on Samples", "on non-Samples", "all")
	errTable.AddRow("Communications", export.Pct(e.CommSamples), export.Pct(e.CommNonSamples), export.Pct(e.CommAll))
	errTable.AddRow("Computations", export.Pct(e.CompSamples), export.Pct(e.CompNonSamples), export.Pct(e.CompAll))
	errTable.AddRow("Average", "", "", export.Pct(e.Average))
	if err := errTable.WriteText(w); err != nil {
		return err
	}

	rows, err := eval.Ablation(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := eval.AblationTable(res.Platform, rows).WriteText(w); err != nil {
		return err
	}

	fmt.Fprintf(w, "\nPer-placement errors:\n")
	plTable := export.NewTable("", "placement", "sample", "comm MAPE", "comp MAPE")
	for _, pr := range res.Placements {
		plTable.AddRow(pr.Placement.String(), fmt.Sprint(pr.IsSample),
			export.Pct(pr.CommMAPE), export.Pct(pr.CompMAPE))
	}
	if err := plTable.WriteText(w); err != nil {
		return err
	}

	// Compact figure: the two calibration samples as ASCII charts.
	fig := eval.FigureFor(eval.FigureNameFor(res.Platform), res)
	for _, sp := range fig.Subplots {
		if !sp.IsSample {
			continue
		}
		var commPar, predComm, compPar, predComp []float64
		for _, p := range sp.Points {
			commPar = append(commPar, p.CommPar)
			predComm = append(predComm, p.PredComm)
			compPar = append(compPar, p.CompPar)
			predComp = append(predComp, p.PredComp)
		}
		fmt.Fprintln(w)
		comm := plot.New(fmt.Sprintf("%v — communications, measured vs model (GB/s)", sp.Placement)).
			Add(plot.Series{Name: "measured", Y: commPar, Marker: 'v'}).
			Add(plot.Series{Name: "model", Y: predComm, Marker: '+'})
		if _, err := io.WriteString(w, comm.Render()); err != nil {
			return err
		}
		comp := plot.New(fmt.Sprintf("%v — computations, measured vs model (GB/s)", sp.Placement)).
			Add(plot.Series{Name: "measured", Y: compPar, Marker: 'v'}).
			Add(plot.Series{Name: "model", Y: predComp, Marker: '+'})
		if _, err := io.WriteString(w, comp.Render()); err != nil {
			return err
		}
	}
	return nil
}
