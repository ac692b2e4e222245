// Package eval runs the paper's full evaluation (§IV): it benchmarks every
// data-placement configuration of a platform once, calibrates the model
// from the two sample curves of that sweep only, predicts all placements,
// and computes the prediction-error statistics of Table II. It also
// assembles the data series behind Figures 2–8.
package eval

import (
	"fmt"
	"math"

	"memcontention/internal/bench"
	"memcontention/internal/calib"
	"memcontention/internal/export"
	"memcontention/internal/model"
	"memcontention/internal/obs"
	"memcontention/internal/stats"
	"memcontention/internal/topology"
)

// PlacementResult holds measured and predicted bandwidths for one
// placement (one subplot of Figures 3–8).
type PlacementResult struct {
	Placement model.Placement    `json:"placement"`
	IsSample  bool               `json:"is_sample"`
	Measured  *bench.Curve       `json:"measured"`
	Predicted []model.Prediction `json:"predicted"` // index n-1
	CommMAPE  float64            `json:"comm_mape"`
	CompMAPE  float64            `json:"comp_mape"`
}

// ErrorSummary is one row of Table II.
type ErrorSummary struct {
	CommSamples    float64 `json:"comm_samples"`
	CommNonSamples float64 `json:"comm_non_samples"`
	CommAll        float64 `json:"comm_all"`
	CompSamples    float64 `json:"comp_samples"`
	CompNonSamples float64 `json:"comp_non_samples"`
	CompAll        float64 `json:"comp_all"`
	// Average is the mean of CommAll and CompAll, the table's last
	// column.
	Average float64 `json:"average"`
}

// PlatformResult is the complete evaluation of one platform.
type PlatformResult struct {
	Platform   string             `json:"platform"`
	Model      model.Model        `json:"model"`
	Placements []*PlacementResult `json:"placements"`
	Errors     ErrorSummary       `json:"errors"`
}

// EvaluatePlatform runs the complete §IV pipeline for one configuration.
func EvaluatePlatform(cfg bench.Config) (*PlatformResult, error) {
	runner, err := bench.NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	return EvaluateRunner(runner)
}

// EvaluateRunner is EvaluatePlatform for a pre-built runner. It measures
// each placement exactly once: the model is calibrated from the two
// sample curves of the one RunAll sweep it scores. The runner's telemetry
// registry, when configured, receives the calibration instruments and the
// evaluation instruments (per-platform MAPE gauges, per-configuration
// absolute-error histograms).
func EvaluateRunner(runner *bench.Runner) (*PlatformResult, error) {
	plat := runner.Config().Platform
	curves, err := runner.RunAll()
	if err != nil {
		return nil, fmt.Errorf("eval: %s: %w", plat.Name, err)
	}
	local, remote, err := bench.SampleCurves(plat, curves)
	if err != nil {
		return nil, fmt.Errorf("eval: %s: %w", plat.Name, err)
	}
	m, err := calib.CalibrateModelWith(local, remote, plat.NodesPerSocket(), calib.Options{Registry: runner.Registry()})
	if err != nil {
		return nil, fmt.Errorf("eval: %s: %w", plat.Name, err)
	}
	res := &PlatformResult{Platform: plat.Name, Model: m}
	for _, curve := range curves {
		pr, err := evaluatePlacement(m, curve)
		if err != nil {
			return nil, fmt.Errorf("eval: %s: %w", plat.Name, err)
		}
		res.Placements = append(res.Placements, pr)
	}
	res.Errors, err = summarize(res.Placements)
	if err != nil {
		return nil, fmt.Errorf("eval: %s: %w", plat.Name, err)
	}
	recordEvaluation(runner.Registry(), res)
	return res, nil
}

// recordEvaluation publishes one platform evaluation: a completion
// counter, the Table II MAPE numbers as labelled gauges, and one
// absolute-error histogram per placement configuration and stream kind.
// A nil registry records nothing.
func recordEvaluation(reg *obs.Registry, res *PlatformResult) {
	if reg == nil {
		return
	}
	reg.Counter("memcontention_eval_platforms_total", "Platform evaluations completed.", nil).Inc()
	placements := reg.Counter("memcontention_eval_placements_total", "Placement configurations evaluated.", nil)
	platLabels := obs.L{"platform": res.Platform}
	reg.Gauge("memcontention_eval_comm_mape_percent", "Communication MAPE over all placements (Table II).", platLabels).Set(res.Errors.CommAll)
	reg.Gauge("memcontention_eval_comp_mape_percent", "Computation MAPE over all placements (Table II).", platLabels).Set(res.Errors.CompAll)
	errBuckets := obs.ExponentialBuckets(1e-3, 4, 12)
	for _, pr := range res.Placements {
		placements.Inc()
		labels := obs.L{"platform": res.Platform, "placement": pr.Placement.String()}
		commErr := reg.Histogram("memcontention_eval_comm_abs_error_gbps", "Absolute communication prediction errors per configuration.", errBuckets, labels)
		compErr := reg.Histogram("memcontention_eval_comp_abs_error_gbps", "Absolute computation prediction errors per configuration.", errBuckets, labels)
		for i, pt := range pr.Measured.Points {
			commErr.Observe(math.Abs(pt.CommPar - pr.Predicted[i].Comm))
			compErr.Observe(math.Abs(pt.CompPar - pr.Predicted[i].Comp))
		}
	}
}

func evaluatePlacement(m model.Model, curve *bench.Curve) (*PlacementResult, error) {
	preds, err := m.PredictCurve(len(curve.Points), curve.Placement)
	if err != nil {
		return nil, err
	}
	pr := &PlacementResult{
		Placement: curve.Placement,
		IsSample:  m.IsSample(curve.Placement),
		Measured:  curve,
		Predicted: preds,
	}
	var aComm, pComm, aComp, pComp []float64
	for i, pt := range curve.Points {
		aComm = append(aComm, pt.CommPar)
		pComm = append(pComm, preds[i].Comm)
		aComp = append(aComp, pt.CompPar)
		pComp = append(pComp, preds[i].Comp)
	}
	if pr.CommMAPE, err = stats.MAPE(aComm, pComm); err != nil {
		return nil, err
	}
	if pr.CompMAPE, err = stats.MAPE(aComp, pComp); err != nil {
		return nil, err
	}
	return pr, nil
}

// summarize pools per-point errors into the Table II categories.
func summarize(placements []*PlacementResult) (ErrorSummary, error) {
	var commS, commN, compS, compN struct{ actual, pred []float64 }
	for _, pr := range placements {
		for i, pt := range pr.Measured.Points {
			if pr.IsSample {
				commS.actual = append(commS.actual, pt.CommPar)
				commS.pred = append(commS.pred, pr.Predicted[i].Comm)
				compS.actual = append(compS.actual, pt.CompPar)
				compS.pred = append(compS.pred, pr.Predicted[i].Comp)
			} else {
				commN.actual = append(commN.actual, pt.CommPar)
				commN.pred = append(commN.pred, pr.Predicted[i].Comm)
				compN.actual = append(compN.actual, pt.CompPar)
				compN.pred = append(compN.pred, pr.Predicted[i].Comp)
			}
		}
	}
	var s ErrorSummary
	var err error
	if s.CommSamples, err = stats.MAPE(commS.actual, commS.pred); err != nil {
		return s, fmt.Errorf("comm sample errors: %w", err)
	}
	if s.CompSamples, err = stats.MAPE(compS.actual, compS.pred); err != nil {
		return s, fmt.Errorf("comp sample errors: %w", err)
	}
	// Platforms can have only sample placements in degenerate layouts;
	// pooled "all" always exists.
	if len(commN.actual) > 0 {
		if s.CommNonSamples, err = stats.MAPE(commN.actual, commN.pred); err != nil {
			return s, err
		}
		if s.CompNonSamples, err = stats.MAPE(compN.actual, compN.pred); err != nil {
			return s, err
		}
	}
	allCommA := append(append([]float64(nil), commS.actual...), commN.actual...)
	allCommP := append(append([]float64(nil), commS.pred...), commN.pred...)
	allCompA := append(append([]float64(nil), compS.actual...), compN.actual...)
	allCompP := append(append([]float64(nil), compS.pred...), compN.pred...)
	if s.CommAll, err = stats.MAPE(allCommA, allCommP); err != nil {
		return s, err
	}
	if s.CompAll, err = stats.MAPE(allCompA, allCompP); err != nil {
		return s, err
	}
	s.Average = (s.CommAll + s.CompAll) / 2
	return s, nil
}

// TestbedConfigs returns the default benchmark configurations for the six
// Table I platforms.
func TestbedConfigs(seed uint64) []bench.Config {
	plats := topology.Testbed()
	cfgs := make([]bench.Config, len(plats))
	for i, p := range plats {
		cfgs[i] = bench.Config{Platform: p, Seed: seed}
	}
	return cfgs
}

// EvaluateTestbed evaluates every Table I platform.
func EvaluateTestbed(seed uint64) ([]*PlatformResult, error) {
	var out []*PlatformResult
	for _, cfg := range TestbedConfigs(seed) {
		r, err := EvaluatePlatform(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// Table2 renders the model-error table in the paper's layout, including
// the final cross-platform Average row.
func Table2(results []*PlatformResult) *export.Table {
	t := export.NewTable(
		"TABLE II — MODEL ERRORS ON TESTBED PLATFORMS",
		"Platform",
		"Comm on Samples", "Comm on non-Samples", "Comm all",
		"Comp on Samples", "Comp on non-Samples", "Comp all",
		"Average",
	)
	var cs, cn, ca, ps, pn, pa, avg []float64
	for _, r := range results {
		e := r.Errors
		t.AddRow(r.Platform,
			export.Pct(e.CommSamples), export.Pct(e.CommNonSamples), export.Pct(e.CommAll),
			export.Pct(e.CompSamples), export.Pct(e.CompNonSamples), export.Pct(e.CompAll),
			export.Pct(e.Average),
		)
		cs = append(cs, e.CommSamples)
		cn = append(cn, e.CommNonSamples)
		ca = append(ca, e.CommAll)
		ps = append(ps, e.CompSamples)
		pn = append(pn, e.CompNonSamples)
		pa = append(pa, e.CompAll)
		avg = append(avg, e.Average)
	}
	t.AddRow("Average",
		export.Pct(stats.Mean(cs)), export.Pct(stats.Mean(cn)), export.Pct(stats.Mean(ca)),
		export.Pct(stats.Mean(ps)), export.Pct(stats.Mean(pn)), export.Pct(stats.Mean(pa)),
		export.Pct(stats.Mean(avg)),
	)
	return t
}

// Table1 renders the platform-characteristics table (Table I).
func Table1(plats []*topology.Platform) *export.Table {
	t := export.NewTable(
		"TABLE I — CHARACTERISTICS OF TESTBED PLATFORMS",
		"Name", "Processor", "Memory", "Network",
	)
	for _, p := range plats {
		t.AddRow(
			p.Name,
			fmt.Sprintf("%d × %s %s", p.NSockets(), p.Vendor, p.CPUName),
			fmt.Sprintf("%d GB of RAM, %d NUMA nodes", p.TotalMemoryGB(), p.NNodes()),
			string(p.NIC.Tech),
		)
	}
	return t
}
