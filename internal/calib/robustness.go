package calib

import (
	"fmt"
	"math"

	"memcontention/internal/bench"
	"memcontention/internal/rng"
	"memcontention/internal/stats"
)

// This file quantifies the calibration's robustness to noisy benchmark
// input. The paper observes that "higher prediction errors come most
// often from unstable input data"; Robustness makes that statement
// measurable by refitting the model from noise-perturbed sample curves
// and reporting how the Table II errors degrade with noise amplitude.

// RobustnessOptions tunes a robustness sweep.
type RobustnessOptions struct {
	// Amplitudes are the relative noise levels to sweep (e.g. 0.05 for
	// ±5 % multiplicative noise). Default: 1 %, 2 %, 5 %, 10 %.
	Amplitudes []float64
	// Trials is how many independent noise realizations are averaged
	// per amplitude (default 5).
	Trials int
	// Seed drives the deterministic noise streams; the same seed and
	// options reproduce the sweep exactly.
	Seed uint64
	// Calib forwards heuristics to the underlying parameter extraction.
	Calib Options
}

func (o RobustnessOptions) withDefaults() RobustnessOptions {
	if len(o.Amplitudes) == 0 {
		o.Amplitudes = []float64{0.01, 0.02, 0.05, 0.10}
	}
	if o.Trials <= 0 {
		o.Trials = 5
	}
	return o
}

func (o RobustnessOptions) validate() error {
	for _, a := range o.Amplitudes {
		if math.IsNaN(a) || math.IsInf(a, 0) || a < 0 || a >= 1 {
			return fmt.Errorf("calib: noise amplitude must be in [0,1), got %v", a)
		}
	}
	return nil
}

// RobustnessPoint is one row of the degradation table: the mean Table II
// errors of models refitted from curves carrying NoiseRel of relative
// noise.
type RobustnessPoint struct {
	NoiseRel float64 `json:"noise_rel"`
	// CommMAPE and CompMAPE are pooled over every placement of the
	// platform and averaged over the successful trials, in percent.
	CommMAPE float64 `json:"comm_mape"`
	CompMAPE float64 `json:"comp_mape"`
	// Average is the mean of CommMAPE and CompMAPE (the last column of
	// Table II).
	Average float64 `json:"average"`
	// Trials counts the noise realizations attempted, FitFailures how
	// many of them the calibration rejected outright.
	Trials      int `json:"trials"`
	FitFailures int `json:"fit_failures"`
}

// RobustnessReport is the outcome of one sweep.
type RobustnessReport struct {
	Platform string `json:"platform"`
	// Baseline is the clean fit (noise 0, one trial) — the reference
	// Table II errors.
	Baseline RobustnessPoint   `json:"baseline"`
	Points   []RobustnessPoint `json:"points"`
}

// PerturbCurve returns a copy of the curve with independent
// multiplicative noise (factor 1 + N(0, rel), clamped — see rng.Jitter)
// applied to every bandwidth sample. The input curve is not modified.
func PerturbCurve(c *bench.Curve, rel float64, stream *rng.Stream) *bench.Curve {
	out := *c
	out.Points = make([]bench.Point, len(c.Points))
	for i, pt := range c.Points {
		pt.CompAlone *= stream.Jitter(rel)
		pt.CommAlone *= stream.Jitter(rel)
		pt.CompPar *= stream.Jitter(rel)
		pt.CommPar *= stream.Jitter(rel)
		out.Points[i] = pt
	}
	return &out
}

// Robustness runs the full sweep on a benchmark runner: it measures every
// placement once (clean), then for each amplitude refits the model
// Trials times from noise-perturbed copies of the two sample curves and
// scores each refit against the clean measurements. Determinism: the
// noise streams are keyed by (seed, amplitude, trial), so repeated calls
// with the same runner configuration and options are bit-identical.
func Robustness(runner *bench.Runner, opts RobustnessOptions) (*RobustnessReport, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	plat := runner.Config().Platform
	curves, err := runner.RunAll()
	if err != nil {
		return nil, fmt.Errorf("calib: robustness: %w", err)
	}
	local, remote, err := bench.SampleCurves(plat, curves)
	if err != nil {
		return nil, fmt.Errorf("calib: robustness: %w", err)
	}

	rep := &RobustnessReport{Platform: plat.Name}
	base, err := scoreFit(local, remote, plat.NodesPerSocket(), opts.Calib, curves)
	if err != nil {
		return nil, fmt.Errorf("calib: robustness: clean fit: %w", err)
	}
	base.Trials = 1
	rep.Baseline = base

	for _, amp := range opts.Amplitudes {
		pt := RobustnessPoint{NoiseRel: amp, Trials: opts.Trials}
		var commSum, compSum float64
		fits := 0
		for trial := 0; trial < opts.Trials; trial++ {
			stream := rng.New(opts.Seed, fmt.Sprintf("calib/robustness/amp=%g/trial=%d", amp, trial))
			noisyLocal := PerturbCurve(local, amp, stream.Derive("local"))
			noisyRemote := PerturbCurve(remote, amp, stream.Derive("remote"))
			s, err := scoreFit(noisyLocal, noisyRemote, plat.NodesPerSocket(), opts.Calib, curves)
			if err != nil {
				pt.FitFailures++
				continue
			}
			commSum += s.CommMAPE
			compSum += s.CompMAPE
			fits++
		}
		if fits > 0 {
			pt.CommMAPE = commSum / float64(fits)
			pt.CompMAPE = compSum / float64(fits)
			pt.Average = (pt.CommMAPE + pt.CompMAPE) / 2
		}
		rep.Points = append(rep.Points, pt)
	}
	return rep, nil
}

// scoreFit calibrates a model from the given sample curves and scores its
// predictions against the clean measured curves, pooled over every
// placement (the "all" columns of Table II).
func scoreFit(local, remote *bench.Curve, nodesPerSocket int, opts Options, clean []*bench.Curve) (RobustnessPoint, error) {
	m, err := CalibrateModelWith(local, remote, nodesPerSocket, opts)
	if err != nil {
		return RobustnessPoint{}, err
	}
	var aComm, pComm, aComp, pComp []float64
	for _, curve := range clean {
		preds, err := m.PredictCurve(len(curve.Points), curve.Placement)
		if err != nil {
			return RobustnessPoint{}, err
		}
		for i, pt := range curve.Points {
			aComm = append(aComm, pt.CommPar)
			pComm = append(pComm, preds[i].Comm)
			aComp = append(aComp, pt.CompPar)
			pComp = append(pComp, preds[i].Comp)
		}
	}
	var s RobustnessPoint
	if s.CommMAPE, err = stats.MAPE(aComm, pComm); err != nil {
		return s, err
	}
	if s.CompMAPE, err = stats.MAPE(aComp, pComp); err != nil {
		return s, err
	}
	s.Average = (s.CommMAPE + s.CompMAPE) / 2
	return s, nil
}
