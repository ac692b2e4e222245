// Package sensitivity quantifies how robust the calibration pipeline is:
// the paper observes that "higher prediction errors come most often from
// unstable input data" (§IV-C). Two studies make that concrete:
//
//   - AcrossSeeds re-runs calibration + evaluation under different noise
//     draws and reports the spread of every model parameter and of the
//     prediction errors — how repeatable is a calibration?
//   - AcrossNoise scales the platform's measurement-noise level and
//     tracks how the prediction error grows — how much instability can
//     the §IV-A2 recipe absorb?
package sensitivity

import (
	"fmt"
	"math"

	"memcontention/internal/bench"
	"memcontention/internal/eval"
	"memcontention/internal/export"
	"memcontention/internal/model"
	"memcontention/internal/stats"
	"memcontention/internal/sweep"
)

// ParamStat is the spread of one model parameter across runs.
type ParamStat struct {
	Name   string  `json:"name"`
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"std_dev"`
	// CV is the coefficient of variation (σ/µ), the paper-agnostic
	// stability measure; 0 for zero-mean parameters.
	CV float64 `json:"cv"`
}

// SeedStudy is the result of AcrossSeeds.
type SeedStudy struct {
	Platform string              `json:"platform"`
	Seeds    []uint64            `json:"seeds"`
	Models   []model.Model       `json:"models"`
	Errors   []eval.ErrorSummary `json:"errors"`
}

// AcrossSeeds calibrates and evaluates cfg once per seed (in parallel).
//
//memlint:allow unreachable — BenchmarkSensitivitySeeds (E15)
func AcrossSeeds(cfg bench.Config, seeds []uint64) (*SeedStudy, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("sensitivity: no seeds")
	}
	if cfg.Platform == nil {
		return nil, fmt.Errorf("sensitivity: nil platform")
	}
	results, err := sweep.Map(seeds, 0, func(seed uint64) (*eval.PlatformResult, error) {
		c := cfg
		c.Seed = seed
		return eval.EvaluatePlatform(c)
	})
	if err != nil {
		return nil, err
	}
	st := &SeedStudy{Platform: cfg.Platform.Name, Seeds: seeds}
	for _, r := range results {
		st.Models = append(st.Models, r.Model)
		st.Errors = append(st.Errors, r.Errors)
	}
	return st, nil
}

// paramAccessors extracts the numeric fields of a Params for spread
// statistics.
var paramAccessors = []struct {
	name string
	get  func(model.Params) float64
}{
	{"N_par_max", func(p model.Params) float64 { return float64(p.NParMax) }},
	{"T_par_max", func(p model.Params) float64 { return p.TParMax }},
	{"N_seq_max", func(p model.Params) float64 { return float64(p.NSeqMax) }},
	{"T_seq_max", func(p model.Params) float64 { return p.TSeqMax }},
	{"T_par_max2", func(p model.Params) float64 { return p.TPar2 }},
	{"delta_l", func(p model.Params) float64 { return p.DeltaL }},
	{"delta_r", func(p model.Params) float64 { return p.DeltaR }},
	{"B_comp_seq", func(p model.Params) float64 { return p.BCompSeq }},
	{"B_comm_seq", func(p model.Params) float64 { return p.BCommSeq }},
	{"alpha", func(p model.Params) float64 { return p.Alpha }},
}

// ParamSpread reports the spread of the local (or remote) instantiation's
// parameters across the study's runs.
//
//memlint:allow unreachable — BenchmarkSensitivitySeeds (E15)
func (s *SeedStudy) ParamSpread(remote bool) []ParamStat {
	out := make([]ParamStat, 0, len(paramAccessors))
	for _, acc := range paramAccessors {
		var vals []float64
		for _, m := range s.Models {
			p := m.Local
			if remote {
				p = m.Remote
			}
			vals = append(vals, acc.get(p))
		}
		st := ParamStat{Name: acc.name, Mean: stats.Mean(vals), StdDev: stats.StdDev(vals)}
		if st.Mean != 0 {
			st.CV = st.StdDev / math.Abs(st.Mean)
		}
		out = append(out, st)
	}
	return out
}

// ErrorSpread reports mean and worst-case prediction errors across seeds.
//
//memlint:allow unreachable — BenchmarkSensitivitySeeds (E15)
func (s *SeedStudy) ErrorSpread() (meanAvg, maxAvg float64) {
	var avgs []float64
	for _, e := range s.Errors {
		avgs = append(avgs, e.Average)
	}
	meanAvg = stats.Mean(avgs)
	maxAvg, _ = stats.Max(avgs)
	return meanAvg, maxAvg
}

// SpreadTable renders a ParamSpread.
//
//memlint:allow unreachable — BenchmarkSensitivitySeeds (E15)
func SpreadTable(platform string, spread []ParamStat) *export.Table {
	t := export.NewTable(
		fmt.Sprintf("Calibration stability on %s (across seeds)", platform),
		"parameter", "mean", "std dev", "CV",
	)
	for _, p := range spread {
		t.AddRow(p.Name,
			fmt.Sprintf("%.3f", p.Mean),
			fmt.Sprintf("%.4f", p.StdDev),
			fmt.Sprintf("%.4f", p.CV))
	}
	return t
}

// NoisePoint is one row of AcrossNoise.
type NoisePoint struct {
	// Factor scales the profile's noise levels (1 = as tuned).
	Factor float64 `json:"factor"`
	// Errors is the evaluation at that noise level (seed fixed).
	Errors eval.ErrorSummary `json:"errors"`
}

// AcrossNoise evaluates the platform at scaled measurement-noise levels.
// cfg.Profile must be nil (built-in platforms) — the study derives scaled
// copies of the hand-tuned profile.
//
//memlint:allow unreachable — BenchmarkSensitivityNoise (E15)
func AcrossNoise(cfg bench.Config, factors []float64) ([]NoisePoint, error) {
	if len(factors) == 0 {
		return nil, fmt.Errorf("sensitivity: no noise factors")
	}
	if cfg.Profile != nil {
		return nil, fmt.Errorf("sensitivity: AcrossNoise derives profiles itself; leave cfg.Profile nil")
	}
	if cfg.Platform == nil {
		return nil, fmt.Errorf("sensitivity: nil platform")
	}
	base, err := bench.NewRunner(cfg) // resolves the built-in profile
	if err != nil {
		return nil, err
	}
	baseProf := base.Config().Profile
	points, err := sweep.Map(factors, 0, func(f float64) (NoisePoint, error) {
		if f < 0 {
			return NoisePoint{}, fmt.Errorf("negative noise factor %v", f)
		}
		prof := *baseProf
		prof.CommNominal = append([]float64(nil), baseProf.CommNominal...)
		prof.Quirks.MeasureNoiseRel *= f
		prof.Quirks.CommNoiseRel *= f
		prof.Quirks.ComputeNoiseRel *= f
		c := cfg
		c.Profile = &prof
		r, err := eval.EvaluatePlatform(c)
		if err != nil {
			return NoisePoint{}, err
		}
		return NoisePoint{Factor: f, Errors: r.Errors}, nil
	})
	if err != nil {
		return nil, err
	}
	return points, nil
}

// NoiseTable renders an AcrossNoise study.
//
//memlint:allow unreachable — BenchmarkSensitivityNoise (E15)
func NoiseTable(platform string, points []NoisePoint) *export.Table {
	t := export.NewTable(
		fmt.Sprintf("Prediction error vs measurement noise on %s", platform),
		"noise ×", "comm all", "comp all", "average",
	)
	for _, p := range points {
		t.AddRow(fmt.Sprintf("%.1f", p.Factor),
			export.Pct(p.Errors.CommAll),
			export.Pct(p.Errors.CompAll),
			export.Pct(p.Errors.Average))
	}
	return t
}
