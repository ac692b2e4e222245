package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"time"

	"memcontention"
	"memcontention/internal/bench"
	"memcontention/internal/calib"
	"memcontention/internal/campaign"
	"memcontention/internal/checkpoint"
	"memcontention/internal/eval"
	"memcontention/internal/kernels"
	"memcontention/internal/memsys"
	"memcontention/internal/model"
	"memcontention/internal/obs"
	"memcontention/internal/serve"
	"memcontention/internal/topology"
)

// The layer suite is fixed, seeded work: the same calls in the same
// order on every run, so every count repeats exactly and only times
// vary. Each call into a layer is a span; a metric is an aggregate of
// the spans of one name, or a ratio of registry counts taken around the
// call.

const (
	layerReps      = 3    // passes over each timing probe
	layerSeeds     = 2    // replications of the traced campaign
	recordReplays  = 10   // fresh journals the campaign's payloads are replayed into
	serveRequests  = 2000 // closed-loop requests of the traced serve session
	handlerCalls   = 1000 // in-memory handler calls
	predictBatches = 200  // passes over every (placement, n) for model.Predict
)

func layerSuite(r *run, tr *tracer) error {
	seed := r.seed*seedBlock + 1
	for _, f := range []func(*run, *tracer, uint64) error{evalLayers, campaignLayers, serveLayers, stencilLayers} {
		if err := f(r, tr, seed); err != nil {
			return err
		}
	}
	return nil
}

// count sums a counter or gauge family over its label sets.
func count(reg *obs.Registry, name string) float64 {
	total := 0.0
	for _, s := range reg.Snapshot() {
		if s.Name == name {
			total += s.Value
		}
	}
	return total
}

// histogram returns a histogram family's summed sum and count.
func histogram(reg *obs.Registry, name string) (sum float64, n uint64) {
	for _, s := range reg.Snapshot() {
		if s.Name == name {
			sum += s.Sum
			n += s.Count
		}
	}
	return sum, n
}

// pointStreams rebuilds the three stream sets bench.MeasurePoint solves
// for one point: compute alone, communication alone, both together.
func pointStreams(runner *bench.Runner, pl model.Placement, n int) ([3][]memsys.Stream, error) {
	plat := runner.Config().Platform
	a := kernels.Assignment{Kernel: runner.Config().Kernel, Cores: plat.CoresOfSocket(0)[:n], Node: pl.Comp}
	comp, err := a.Streams(runner.System(), 0)
	if err != nil {
		return [3][]memsys.Stream{}, err
	}
	comm := []memsys.Stream{{ID: 1 << 20, Kind: memsys.KindComm, Node: pl.Comm}}
	return [3][]memsys.Stream{comp, comm, append(append([]memsys.Stream(nil), comp...), comm...)}, nil
}

// evalLayers measures memsys, bench, calib, model and eval on every
// Table I platform.
func evalLayers(r *run, tr *tracer, seed uint64) error {
	reg := obs.NewRegistry()
	var results []*eval.PlatformResult
	var points, solves, remeasured float64
	var benchPoints, solveCalls int
	var objPoint, objSolve uint64
	for _, name := range campaign.TestbedNames() {
		plat, err := topology.ByName(name)
		if err != nil {
			return err
		}
		cfg := bench.Config{Platform: plat, Seed: seed}
		op := tr.newOp()

		// Counts: one evaluation with a registry attached.
		counted, err := bench.NewRunner(bench.Config{Platform: plat, Seed: seed, Registry: reg})
		if err != nil {
			return err
		}
		p0, s0 := count(reg, "memcontention_bench_points_total"), count(reg, "memcontention_bench_solves_total")
		var res *eval.PlatformResult
		if err := tr.do("eval.EvaluateRunner[registry]", op, 0, func(int) error {
			res, err = eval.EvaluateRunner(counted)
			return err
		}); !r.op(err) {
			continue
		}
		results = append(results, res)
		dp := count(reg, "memcontention_bench_points_total") - p0
		points += dp
		solves += count(reg, "memcontention_bench_solves_total") - s0
		inCurves := 0
		for _, pr := range res.Placements {
			inCurves += len(pr.Measured.Points)
		}
		remeasured += dp - float64(inCurves)

		// Times: the paper path, no registry.
		for rep := 0; rep < layerReps; rep++ {
			runner, err := bench.NewRunner(cfg)
			if err != nil {
				return err
			}
			r.op(tr.do("eval.EvaluateRunner", op, 0, func(int) error { _, err := eval.EvaluateRunner(runner); return err }))
			runner, err = bench.NewRunner(cfg)
			if err != nil {
				return err
			}
			var m model.Model
			r.op(tr.do("calib.CalibrateRunner", op, 0, func(int) error { m, err = calib.CalibrateRunner(runner); return err }))
			local, remote, err := runner.RunSamples()
			if !r.op(err) {
				continue
			}
			const fits = 20
			id := tr.begin("calib.CalibrateModel", op, 0)
			for i := 0; i < fits; i++ {
				if _, err := calib.CalibrateModel(local, remote, plat.NodesPerSocket()); err != nil {
					r.op(err)
				}
			}
			tr.end(id, fits)

			placements := bench.AllPlacements(plat)
			nMax := plat.CoresPerSocket()
			id = tr.begin("model.Predict", op, 0)
			calls := 0
			for b := 0; b < predictBatches; b++ {
				for _, pl := range placements {
					for n := 1; n <= nMax; n++ {
						if _, err := m.Predict(n, pl); err != nil {
							r.op(err)
						}
						calls++
					}
				}
			}
			tr.end(id, calls)
			id = tr.begin("model.PredictCurve", op, 0)
			for b := 0; b < predictBatches/10; b++ {
				for _, pl := range placements {
					if _, err := m.PredictCurve(nMax, pl); err != nil {
						r.op(err)
					}
				}
			}
			tr.end(id, predictBatches/10*len(placements))

			// bench.MeasurePoint, then its three solves replayed on the
			// same stream sets: the difference is bench's own work
			// (stream building and noise labels).
			// Heap objects are read inside the span, so that the tracer's
			// own bookkeeping is not counted.
			id = tr.begin("bench.MeasurePoint", op, 0)
			_, o0 := memStats()
			for _, pl := range placements {
				for n := 1; n <= nMax; n++ {
					if _, err := runner.MeasurePoint(pl, n); err != nil {
						r.op(err)
					}
				}
			}
			_, o1 := memStats()
			tr.end(id, len(placements)*nMax)
			objPoint += o1 - o0
			benchPoints += len(placements) * nMax
			var sets [][3][]memsys.Stream
			for _, pl := range placements {
				for n := 1; n <= nMax; n++ {
					s, err := pointStreams(runner, pl, n)
					if err != nil {
						return err
					}
					sets = append(sets, s)
				}
			}
			sys := runner.System()
			id = tr.begin("memsys.Solve", op, 0)
			_, o0 = memStats()
			for _, s := range sets {
				for _, streams := range s {
					if _, err := sys.Solve(streams); err != nil {
						r.op(err)
					}
				}
			}
			_, o1 = memStats()
			tr.end(id, 3*len(sets))
			objSolve += o1 - o0
			solveCalls += 3 * len(sets)
		}
	}
	pointNS := tr.totalNS("bench.MeasurePoint")
	solveNS := tr.totalNS("memsys.Solve")
	evals := float64(len(results))

	id := tr.begin("eval.render", 0, 0)
	for i := 0; i < layerReps; i++ {
		if _, err := render(results); !r.op(err) {
			break
		}
	}
	tr.end(id, layerReps)

	evalNS := tr.meanNS("eval.EvaluateRunner")
	r.add("memsys.solves_per_eval", solves/evals, "count", "memcontention_bench_solves_total per platform evaluation")
	r.add("memsys.solve_ns", solveNS/float64(solveCalls), "ns", "Solve replayed on MeasurePoint's stream sets")
	r.add("memsys.allocs_per_solve", float64(objSolve)/float64(solveCalls), "objects", "heap objects per Solve")
	r.add("memsys.share", solves/evals*solveNS/float64(solveCalls)/evalNS, "ratio", "derived: solves_per_eval x solve_ns / evaluate_runner time")
	r.add("bench.points_per_eval", points/evals, "count", "memcontention_bench_points_total per platform evaluation")
	r.add("bench.measure_point_ns", pointNS/float64(benchPoints), "ns", "MeasurePoint over every placement and core count")
	r.add("bench.self_ns_per_point", (pointNS-solveNS)/float64(benchPoints), "ns", "derived: MeasurePoint minus its three replayed solves")
	r.add("bench.allocs_per_point", float64(objPoint)/float64(benchPoints), "objects", "heap objects per MeasurePoint")
	r.add("calib.remeasured_points_per_eval", remeasured/evals, "count", "points measured during EvaluateRunner minus points in its curves")
	r.add("calib.calibrate_runner_ms", tr.meanNS("calib.CalibrateRunner")/1e6, unitMS, "CalibrateRunner on a fresh runner, mean over platforms")
	r.add("calib.fit_us", tr.meanNS("calib.CalibrateModel")/1e3, "us", "CalibrateModel on already measured sample curves")
	r.add("model.predict_ns", tr.meanNS("model.Predict"), "ns", "Predict over every placement and core count")
	r.add("model.predict_curve_us", tr.meanNS("model.PredictCurve")/1e3, "us", "PredictCurve per placement")
	r.add("eval.evaluate_runner_ms", evalNS/1e6, unitMS, "EvaluateRunner, no registry, mean over platforms")
	r.add("eval.render_ms", tr.meanNS("eval.render")/1e6, unitMS, "Table II, Figures 2-8 CSVs and table2.json for one seed")
	return nil
}

// campaignLayers measures checkpoint and the campaign executors on a
// small campaign.
func campaignLayers(r *run, tr *tracer, seed uint64) error {
	dir, err := r.scratch("layers-campaign")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	names := campaign.TestbedNames()
	units := float64(len(names) * layerSeeds)
	reg := obs.NewRegistry()
	cfg := campaign.Config{Seed: seed, Workers: 1, Replications: layerSeeds}
	op := tr.newOp()
	runCampaign := func(name string, cfg campaign.Config) error {
		return tr.do(name, op, 0, func(int) error {
			base, err := campaign.EvaluatePlatforms(cfg, names)
			if err == nil {
				_, err = campaign.Replicate(cfg, names, base)
			}
			return err
		})
	}
	if !r.op(runCampaign("campaign.plain", cfg)) {
		return nil
	}

	path := filepath.Join(dir, "cold.ckpt")
	j, err := checkpoint.Open(path)
	if err != nil {
		return err
	}
	j.SetRegistry(reg)
	jcfg := cfg
	jcfg.Journal, jcfg.Registry = j, reg
	r.op(runCampaign("campaign.cold", jcfg))
	if err := j.Close(); err != nil {
		return err
	}
	records := count(reg, "memcontention_checkpoint_entries_written_total")
	st, err := os.Stat(path)
	if err != nil {
		return err
	}

	for i := 0; i < 5; i++ {
		var j *checkpoint.Journal
		if err := tr.do("checkpoint.Open", op, 0, func(int) error { j, err = checkpoint.Open(path); return err }); err != nil {
			return err
		}
		if err := j.Close(); err != nil {
			return err
		}
	}
	if j, err = checkpoint.Open(path); err != nil {
		return err
	}
	j.SetRegistry(reg)
	h0 := count(reg, "memcontention_checkpoint_hits_total")
	jcfg.Journal = j
	r.op(runCampaign("campaign.resume", jcfg))
	hits := count(reg, "memcontention_checkpoint_hits_total") - h0

	// Get every entry into its own type, then replay the raw payloads
	// into fresh journals, one fsync per record.
	keys := j.Keys()
	payloads := make([]json.RawMessage, len(keys))
	id := tr.begin("checkpoint.Get", op, 0)
	for _, k := range keys {
		var v any = &bench.Curve{}
		if strings.HasPrefix(k, "eval|") {
			v = &eval.PlatformResult{}
		}
		if _, err := j.Get(k, v); err != nil {
			r.op(err)
		}
	}
	tr.end(id, len(keys))
	for i, k := range keys {
		if _, err := j.Get(k, &payloads[i]); err != nil {
			return err
		}
	}
	if err := j.Close(); err != nil {
		return err
	}
	var recordMS []float64
	for rep := 0; rep < recordReplays; rep++ {
		rj, err := checkpoint.Open(filepath.Join(dir, fmt.Sprintf("replay-%d.ckpt", rep)))
		if err != nil {
			return err
		}
		for i, k := range keys {
			t := time.Now()
			r.op(tr.do("checkpoint.Record", op, 0, func(int) error { return rj.Record(k, payloads[i]) }))
			recordMS = append(recordMS, msSince(t))
		}
		if err := rj.Close(); err != nil {
			return err
		}
	}

	sreg := obs.NewRegistry()
	shards := filepath.Join(dir, "shards")
	scfg := campaign.Config{Seed: seed, Registry: sreg, Replications: layerSeeds}
	r.op(tr.do("campaign.ShardedEvaluate", op, 0, func(int) error {
		_, err := campaign.ShardedEvaluate(scfg, campaign.ShardOptions{Workers: 2, Dir: shards}, names)
		return err
	}))
	set, err := checkpoint.OpenShardSet(shards)
	if err != nil {
		return err
	}
	paths, err := set.Paths()
	if err != nil {
		return err
	}
	var images [][]byte
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		images = append(images, b)
	}
	for i := 0; i < 5; i++ {
		r.op(tr.do("checkpoint.MergeShards", op, 0, func(int) error { _, err := checkpoint.MergeShards(images); return err }))
	}

	plain := tr.totalNS("campaign.plain")
	r.add("checkpoint.records_per_unit", records/units, "count", "journal records per platform evaluation")
	r.add("checkpoint.bytes_per_unit", float64(st.Size())/units, "B", "journal bytes per platform evaluation")
	r.add("checkpoint.record_ms", median(recordMS), unitMS, fmt.Sprintf("median Journal.Record incl. fsync, n=%d", len(recordMS)))
	r.add("checkpoint.record_p99_ms", quantile(recordMS, 0.99), unitMS, fmt.Sprintf("p99 Journal.Record incl. fsync, n=%d", len(recordMS)))
	r.add("checkpoint.open_ms", median(tr.perCall("checkpoint.Open"))/1e6, unitMS, "median Open of the completed journal")
	r.add("checkpoint.get_us", tr.meanNS("checkpoint.Get")/1e3, "us", "Get into the entry's own type, mean over entries")
	r.add("checkpoint.hits_per_resume", hits, "count", "journal hits while resuming the completed campaign")
	r.add("checkpoint.merge_ms", median(tr.perCall("checkpoint.MergeShards"))/1e6, unitMS, "median MergeShards on the shard images")
	r.add("campaign.units", count(sreg, "memcontention_campaign_units"), "count", "units of the sharded campaign")
	r.add("campaign.retries", count(sreg, "memcontention_campaign_unit_retries_total"), "count", "unit attempts retried")
	r.add("campaign.steals", count(sreg, "memcontention_campaign_units_stolen_total"), "count", "units run off their home shard (scheduling-dependent)")
	r.add("campaign.restarts", count(sreg, "memcontention_campaign_worker_restarts_total"), "count", "worker restarts (wasted work when non-zero)")
	r.add("campaign.overhead_ratio", tr.totalNS("campaign.cold")/plain, "ratio", "cold journaled wall / unjournaled wall, same seeds")
	r.add("campaign.sharded_vs_sequential", tr.totalNS("campaign.ShardedEvaluate")/plain, "ratio", "sharded (2 workers) wall / unjournaled sequential wall")
	r.add("campaign.resume_s", tr.totalNS("campaign.resume")/1e9, unitS, "resume of the completed campaign")
	return nil
}

// serveLayers measures memserve's handler split and its live session.
func serveLayers(r *run, tr *tracer, seed uint64) error {
	s := &serveWL{}
	op := tr.newOp()
	if err := tr.do("serve.setup", op, 0, func(int) error { return s.setup(r) }); err != nil {
		return err
	}
	defer s.close()
	if err := s.start(); err != nil {
		return err
	}
	reqs, err := genRequests(seed+1, handlerCalls)
	if err != nil {
		return err
	}
	h := s.srv.Handler()
	for _, q := range reqs {
		req := httptest.NewRequest(http.MethodGet, "/predict?"+q.query, nil)
		if q.post {
			req = httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(q.body))
		}
		rec := httptest.NewRecorder()
		tr.do("serve.Handler.ServeHTTP", op, 0, func(int) error { h.ServeHTTP(rec, req); return nil })
		r.op(s.check(q, reply{code: rec.Code, body: rec.Body.Bytes()}))
	}
	queries := make([]url.Values, len(reqs))
	for i, q := range reqs {
		if queries[i], err = url.ParseQuery(q.query); err != nil {
			return err
		}
	}
	id := tr.begin("serve.DecodeRequest", op, 0)
	for i, q := range reqs {
		var err error
		if q.post {
			_, err = serve.DecodeRequest(q.body, nil)
		} else {
			_, err = serve.DecodeRequest(nil, queries[i])
		}
		if err != nil {
			r.op(err)
		}
	}
	tr.end(id, len(reqs))
	var buf bytes.Buffer
	id = tr.begin("serve.encode", op, 0)
	for _, q := range reqs {
		buf.Reset()
		if err := json.NewEncoder(&buf).Encode(serve.Response{Platform: q.platform, N: q.n, MComp: q.mcomp, MComm: q.mcomm, Kernel: q.kernel, CompGBps: 1.5, CommGBps: 2.5, Model: "0123456789abcdef", Cached: true, Request: "run-000001"}); err != nil {
			r.op(err)
		}
	}
	tr.end(id, len(reqs))

	sum0, n0 := histogram(s.reg, "memcontention_serve_request_seconds")
	var client []float64
	for i := 0; i < serveRequests; i++ {
		q := s.reqs[i%len(s.reqs)]
		t := time.Now()
		var rp reply
		tr.do("serve.client.request", op, 0, func(int) error { rp = s.send(s.conns[0], q); return rp.err })
		client = append(client, msSince(t))
		r.op(s.check(q, rp))
	}
	sum1, n1 := histogram(s.reg, "memcontention_serve_request_seconds")
	serverMean := (sum1 - sum0) / float64(n1-n0) * 1e6
	clientMean := 0.0
	for _, v := range client {
		clientMean += v * 1e3 / float64(len(client))
	}
	open, err := s.openLoop(time.Second / 2)
	if err != nil {
		return err
	}
	open.record(r)

	r.add("serve.handler_us", tr.meanNS("serve.Handler.ServeHTTP")/1e3, "us", "Handler().ServeHTTP on an in-memory recorder, no socket")
	r.add("serve.decode_us", tr.meanNS("serve.DecodeRequest")/1e3, "us", "DecodeRequest, half JSON bodies, half queries")
	r.add("serve.encode_us", tr.meanNS("serve.encode")/1e3, "us", "JSON encoding of one Response")
	r.add("serve.server_mean_us", serverMean, "us", "mean of memcontention_serve_request_seconds over the closed loop")
	r.add("serve.net_share", 1-serverMean/clientMean, "ratio", fmt.Sprintf("1 - server / client mean, client mean %.2f us, 1 connection", clientMean))
	r.add("serve.warm_ms_per_entry", tr.totalNS("serve.setup")/1e6/24, unitMS, "New + Warm + priming / 24 calibration entries")
	r.add("serve.cache_hits", count(s.reg, "memcontention_serve_cache_hits_total"), "count", "")
	r.add("serve.cache_misses", count(s.reg, "memcontention_serve_cache_misses_total"), "count", "")
	r.add("serve.coalesced", count(s.reg, "memcontention_serve_coalesced_total"), "count", "")
	r.add("serve.shed", count(s.reg, "memcontention_serve_shed_total"), "count", "")
	r.add("serve.gen_late_ms", quantile(open.late, 0.99), unitMS, fmt.Sprintf("p99 open-loop send delay, %d requests at %d req/s", len(open.late), openRate))
	return nil
}

// stencilLayers measures the DES layers: engine and cluster counts per
// run, host time per event, cluster construction, the advisor, and the
// cost of a live registry.
func stencilLayers(r *run, tr *tracer, seed uint64) error {
	s := &stencilWL{}
	if err := s.setup(r); err != nil {
		return err
	}
	op := tr.newOp()
	plat, err := memcontention.PlatformByName("henri")
	if err != nil {
		return err
	}
	m, err := memcontention.Calibrate("henri", seed)
	if err != nil {
		return err
	}
	const advises = 20
	id := tr.begin("stencil.AdviseStencil", op, 0)
	for i := 0; i < advises; i++ {
		if _, err := memcontention.AdviseStencil(m, plat, s.cases[0].cfg); err != nil {
			r.op(err)
		}
	}
	tr.end(id, advises)
	const clusters = 50
	id = tr.begin("cluster.NewCluster", op, 0)
	for i := 0; i < clusters; i++ {
		if _, err := memcontention.NewCluster("henri", stencilMachines); err != nil {
			return err
		}
	}
	tr.end(id, clusters)

	// pass runs every configuration once and returns the summed
	// simulated time.
	pass := func(name string, reg *obs.Registry) float64 {
		id := tr.begin(name, op, 0)
		sim := s.sweep(r, nil, reg, nil)
		tr.end(id, len(s.cases))
		return sim
	}
	reg := obs.NewRegistry()
	sim := pass("stencil.pass[registry]", reg)
	runs := float64(len(s.cases))
	events := count(reg, "memcontention_engine_events_fired_total")
	r.add("engine.events_per_run", events/runs, "count", "memcontention_engine_events_fired_total per run")
	r.add("engine.rate_resolves_per_run", count(reg, "memcontention_engine_rate_resolves_total")/runs, "count", "")
	r.add("engine.solver_streams_per_run", count(reg, "memcontention_engine_solver_streams_total")/runs, "count", "")
	r.add("engine.flows_per_run", count(reg, "memcontention_engine_flows_started_total")/runs, "count", "")
	r.add("cluster.sim_seconds", sim, unitS, "simulated time summed over the configurations; must not move with host speed")
	for i := 0; i < layerReps; i++ {
		pass("stencil.pass[nil]", nil)
		pass("stencil.pass[live]", obs.NewRegistry())
	}
	r.add("engine.host_ns_per_event", tr.meanNS("stencil.pass[nil]")*runs/events, "ns", "host time per fired event, no registry")
	r.add("cluster.new_us", tr.meanNS("cluster.NewCluster")/1e3, "us", fmt.Sprintf("NewCluster of %d henri machines", stencilMachines))
	r.add("stencil.advise_us", tr.meanNS("stencil.AdviseStencil")/1e3, "us", "AdviseStencil on henri")
	r.add("obs.registry_overhead", median(tr.perCall("stencil.pass[live]"))/median(tr.perCall("stencil.pass[nil]")), "ratio",
		fmt.Sprintf("stencil wall with a fresh registry / nil registry, median of %d passes each", layerReps))
	return nil
}
