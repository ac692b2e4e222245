// Command memmodel calibrates the contention model on a platform and
// prints parameters and predictions (§III + §IV-A2).
//
// Usage:
//
//	memmodel -platform henri                      # calibrate, print params
//	memmodel -platform henri -json                # params as JSON
//	memmodel -platform henri -n 12 -comp 0 -comm 1   # one prediction
//	memmodel -platform henri -predict             # predictions, all placements
//
// Telemetry (all optional, see docs/observability.md):
//
//	memmodel -platform henri -metrics m.prom      # Prometheus snapshot
//	memmodel -platform henri -trace t.jsonl       # DES cross-check trace
//	memmodel -platform henri -manifest run.json   # reproducibility manifest
//	memmodel -platform henri -pprof localhost:6060
//
// Robustness (see docs/resilience.md):
//
//	memmodel -platform henri -faults plan.json    # cross-check under faults
//	memmodel -platform henri -robust              # calibration noise sweep
//	memmodel -platform henri -checkpoint run.ckpt # crash-safe resume
//
// With -checkpoint each completed unit (placement curve, cross-check) is
// journaled durably; SIGINT/SIGTERM interrupts the run cleanly (exit
// status 130, a `checkpoint` trace event marks the cut in -trace output)
// and the same command line resumes it with bit-identical results.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"memcontention"
	"memcontention/internal/bench"
	"memcontention/internal/calib"
	"memcontention/internal/campaign"
	"memcontention/internal/checkpoint"
	"memcontention/internal/engine"
	"memcontention/internal/eval"
	"memcontention/internal/export"
	"memcontention/internal/model"
	"memcontention/internal/obs"
	"memcontention/internal/topology"
	"memcontention/internal/trace"
)

// options are memmodel's parsed command-line inputs.
type options struct {
	platform         string
	seed             uint64
	seedSet          bool // -seed given explicitly (pins a remote campaign's seed)
	jsonOut, predict bool
	n, comp, comm    int
	faultsPath       string
	robust           bool
	robustTrials     int
	workers          int
	remote           bool
	shards           string
	replications     int
}

func main() {
	var o options
	flag.StringVar(&o.platform, "platform", "henri", "built-in platform name")
	flag.Uint64Var(&o.seed, "seed", 1, "measurement noise seed")
	flag.BoolVar(&o.jsonOut, "json", false, "print the calibrated model as JSON")
	flag.BoolVar(&o.predict, "predict", false, "print prediction tables for all placements")
	flag.IntVar(&o.n, "n", 0, "predict for this number of computing cores")
	flag.IntVar(&o.comp, "comp", 0, "computation data NUMA node for -n")
	flag.IntVar(&o.comm, "comm", 0, "communication data NUMA node for -n")
	flag.StringVar(&o.faultsPath, "faults", "", "fault plan JSON file: run the DES cross-check under this plan")
	flag.BoolVar(&o.robust, "robust", false, "print how calibration errors degrade with benchmark noise")
	flag.IntVar(&o.robustTrials, "robust-trials", 5, "noise realizations per amplitude for -robust")
	var workersFlag string
	flag.StringVar(&workersFlag, "workers", "0", `parallel evaluations for -replications (0: GOMAXPROCS), or "remote": finalize a lease-coordinated multi-process campaign in -shards (docs/campaigns.md)`)
	flag.StringVar(&o.shards, "shards", "", "campaign directory for -workers remote")
	flag.IntVar(&o.replications, "replications", 1, "Monte-Carlo replication sweep: evaluate this many consecutive seeds and print the platform's Table II errors as mean ± 95% CI")
	var cli obs.CLI
	cli.Register(flag.CommandLine, true)
	var ckpt checkpoint.CLI
	ckpt.Register(flag.CommandLine)
	flag.Parse()
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			o.seedSet = true
		}
	})
	var perr error
	if o.workers, o.remote, perr = campaign.ParseWorkers(workersFlag); perr != nil {
		fmt.Fprintln(os.Stderr, "memmodel:", perr)
		os.Exit(2)
	}

	ctx, stop := checkpoint.SignalContext()
	err := run(ctx, os.Stdout, o, &ckpt, &cli)
	stop()
	if code := checkpoint.Report(os.Stderr, "memmodel", err); code != 0 {
		os.Exit(code)
	}
}

// run opens the journal and executes the command core; split from main so
// tests can drive the full logic with their own context and journal.
func run(ctx context.Context, w io.Writer, o options, ckpt *checkpoint.CLI, cli *obs.CLI) error {
	if o.remote {
		return remoteFinalize(ctx, w, o)
	}
	j, err := ckpt.Open()
	if err != nil {
		return err
	}
	defer j.Close()
	return modelCampaign(ctx, w, j, o, cli)
}

// remoteFinalize is the -workers remote path: wait for a memworker
// fleet to complete the campaign in -shards, merge every shard journal
// (all fencing epochs) and print the assembled Table II (plus the
// replication summary when the campaign ran one). The platform list,
// seed and replication width come from the campaign's manifest; an
// explicitly conflicting -seed or -replications is rejected with the
// exact disagreement.
func remoteFinalize(ctx context.Context, w io.Writer, o options) error {
	if o.shards == "" {
		return errors.New("-workers remote requires -shards <campaign dir>")
	}
	seed := o.seed
	if !o.seedSet {
		seed = 0 // inherit the manifest's seed
	}
	res, err := campaign.RemoteMerge(campaign.Config{
		Seed:         seed,
		Replications: o.replications,
		Context:      ctx,
	}, campaign.RemoteOptions{Dir: o.shards}, nil)
	if err != nil {
		return err
	}
	if err := eval.Table2(res.Artifacts.Platforms).WriteText(w); err != nil {
		return err
	}
	if rep := res.Artifacts.Replications; rep != nil {
		fmt.Fprintln(w)
		return rep.Table().WriteText(w)
	}
	return nil
}

func modelCampaign(ctx context.Context, w io.Writer, j *checkpoint.Journal, o options, cli *obs.CLI) (err error) {
	if err := cli.Start(); err != nil {
		return err
	}
	plat, err := topology.ByName(o.platform)
	if err != nil {
		return err
	}
	reg := cli.NewRegistry()
	j.SetRegistry(reg)
	var rec *trace.Recorder
	if cli.WantsTrace() {
		rec = trace.NewRecorder()
	}
	man := obs.NewManifest("memmodel")
	man.Platform = o.platform
	man.Seed = o.seed
	man.Args = os.Args[1:]

	// Telemetry flushes on success AND on graceful shutdown — an
	// interrupted run still writes its metrics, manifest, and a
	// `checkpoint` trace event recording where the campaign was cut.
	defer func() {
		if err != nil && !checkpoint.IsCanceled(err) {
			return
		}
		if err != nil && rec != nil {
			at := 0.0
			var ce *engine.CanceledError
			if errors.As(err, &ce) {
				at = ce.At
			}
			rec.CheckpointAt(at, "interrupted: "+campaign.Progress(j))
		}
		ferr := cli.Finish(reg, rec, man)
		if err == nil {
			err = ferr
		}
	}()

	runner, err := bench.NewRunner(bench.Config{Platform: plat, Seed: o.seed, Registry: reg, Context: ctx})
	if err != nil {
		return err
	}
	runner.WithJournal(j)
	man.Kernel = runner.Config().Kernel.String()
	m, err := calib.CalibrateRunner(runner)
	if err != nil {
		return err
	}

	switch {
	case o.jsonOut:
		err = export.WriteJSON(w, m)
	case o.n > 0:
		pl := model.Placement{Comp: topology.NodeID(o.comp), Comm: topology.NodeID(o.comm)}
		pred, perr := m.Predict(o.n, pl)
		if perr != nil {
			return perr
		}
		fmt.Fprintf(w, "%s, %v, n=%d: computations %.2f GB/s, communications %.2f GB/s\n",
			o.platform, pl, o.n, pred.Comp, pred.Comm)
	case o.predict:
		for _, pl := range bench.AllPlacements(plat) {
			preds, perr := m.PredictCurve(plat.CoresPerSocket(), pl)
			if perr != nil {
				return perr
			}
			t := export.NewTable(fmt.Sprintf("%s — predicted bandwidths for %v (GB/s)", o.platform, pl),
				"n", "computations", "communications")
			for i, p := range preds {
				t.AddRow(fmt.Sprint(i+1), export.GBs(p.Comp), export.GBs(p.Comm))
			}
			if err := t.WriteText(w); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
	default:
		err = export.ParamsTable(
			fmt.Sprintf("Calibrated model for %s (seed %d)", o.platform, o.seed), m,
		).WriteText(w)
	}
	if err != nil {
		return err
	}

	if o.robust {
		rep, rerr := calib.Robustness(runner, calib.RobustnessOptions{Trials: o.robustTrials, Seed: o.seed})
		if rerr != nil {
			return rerr
		}
		t := export.NewTable(
			fmt.Sprintf("%s — calibration robustness (Table II MAPE vs input noise, %d trials)", o.platform, o.robustTrials),
			"noise", "comm MAPE %", "comp MAPE %", "average %", "fit failures")
		row := func(label string, pt calib.RobustnessPoint) {
			t.AddRow(label,
				fmt.Sprintf("%.2f", pt.CommMAPE),
				fmt.Sprintf("%.2f", pt.CompMAPE),
				fmt.Sprintf("%.2f", pt.Average),
				fmt.Sprint(pt.FitFailures))
		}
		row("clean", rep.Baseline)
		for _, pt := range rep.Points {
			row(fmt.Sprintf("±%g%%", pt.NoiseRel*100), pt)
		}
		if err := t.WriteText(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}

	if o.replications > 1 {
		// The replication sweep measures the platform's Table II errors
		// across a consecutive-seed ensemble; each evaluation journals
		// into j, so an interrupted sweep resumes at evaluation
		// granularity.
		rep, rerr := campaign.Replicate(campaign.Config{
			Seed:         o.seed,
			Workers:      o.workers,
			Replications: o.replications,
			Context:      ctx,
			Journal:      j,
			Registry:     reg,
		}, []string{o.platform}, nil)
		if rerr != nil {
			return rerr
		}
		if err := rep.Table().WriteText(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}

	var plan *memcontention.FaultPlan
	if o.faultsPath != "" {
		if plan, err = memcontention.LoadFaultPlan(o.faultsPath); err != nil {
			return err
		}
	}

	// The DES cross-check replays the paper's motivating overlap scenario
	// on the simulated cluster; it feeds the event trace and the engine's
	// instruments. Only run it when some telemetry output wants the data
	// or a fault plan asks to stress it.
	if cli.WantsTrace() || reg != nil || plan != nil {
		xc, xerr := campaign.CrossCheck(campaign.Config{
			Seed:      o.seed,
			Context:   ctx,
			Journal:   j,
			Registry:  reg,
			Recorder:  rec,
			FaultPlan: plan,
		}, o.platform)
		if xerr != nil {
			return xerr
		}
		if plan != nil {
			if xc.Completed {
				fmt.Fprintf(w, "cross-check under fault plan (seed %d, %d events): completed in %.6f simulated seconds\n",
					xc.PlanSeed, xc.PlanEvents, xc.SimSeconds)
			} else {
				fmt.Fprintf(w, "cross-check under fault plan (seed %d, %d events): failed: %s\n",
					xc.PlanSeed, xc.PlanEvents, xc.Error)
			}
		}
	}
	return nil
}
