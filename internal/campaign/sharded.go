package campaign

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"memcontention/internal/checkpoint"
	"memcontention/internal/eval"
	"memcontention/internal/lease"
	"memcontention/internal/obs"
	"memcontention/internal/sweep"
)

// ShardOptions parameterises the in-process sharded executor. The zero
// value runs with GOMAXPROCS workers, three attempts per unit, a
// deterministic exponential backoff, and shard journals in a throwaway
// temporary directory (no resume).
type ShardOptions struct {
	// Workers is the worker count and therefore the shard count
	// (0: GOMAXPROCS). Worker w owns home shard w and journals it into
	// shard-000w.eK.ckpt under its lease epoch K.
	Workers int
	// Dir is the shard-set directory holding the per-shard journals, the
	// leases, the merged journal and the quarantine report. Empty uses a
	// temporary directory removed after the run — parallelism without
	// resume.
	Dir string
	// MaxAttempts bounds how often one unit may fail (error or panic)
	// before it is quarantined (default 3).
	MaxAttempts int
	// Backoff returns the delay before retry `attempt` (1-based) of a
	// failed unit. The default doubles from 10ms and saturates at 1s —
	// deterministic, no jitter, so campaigns stay reproducible.
	Backoff func(attempt int) time.Duration
	// Sleep waits for the backoff delay; tests inject a no-op. The
	// default honors ctx so graceful shutdown never waits out a backoff.
	Sleep func(ctx context.Context, d time.Duration) error

	// KillHook, when set, is consulted before a worker starts a unit;
	// returning true kills that worker: it stops without releasing its
	// lease, as if the OS had killed a process. The pool restarts the
	// worker under the same lease owner, which re-claims its shard at
	// the next epoch without charging the unit an attempt —
	// infrastructure kills are not the unit's fault. The soak harness
	// uses this to prove kill-and-resume byte-identity under worker
	// churn.
	KillHook func(shard int, key string) bool
	// FaultHook, when set, runs before each unit attempt and may return
	// an error to inject a unit failure (attempt charged). The poison
	// and retry tests use it.
	FaultHook func(key string, attempt int) error
	// UnitDone, when set, is called after each durably journaled unit
	// with the total completed so far. The soak harness cancels the
	// campaign here to model whole-process kills at unit boundaries.
	UnitDone func(completed int)

	// Worker identifies this executor in the campaign's fleet plane:
	// beacons/<Worker>.json and events/<Worker>.jsonl under Dir (empty:
	// "supervisor"). Only persistent runs (Dir set) get a fleet plane;
	// throwaway temp-dir runs emit nothing.
	Worker string
	// Clock drives the fleet plane's timestamps and the lease heartbeats
	// (nil: obs.WallClock; tests inject a fake clock's Now for
	// byte-deterministic beacons).
	Clock obs.Clock
}

func (o ShardOptions) withDefaults() ShardOptions {
	if o.Workers <= 0 {
		o.Workers = sweep.DefaultWorkers()
	}
	if o.Worker == "" {
		o.Worker = "supervisor"
	}
	return o
}

// errWorkerKilled ends a pool worker that ShardOptions.KillHook killed.
var errWorkerKilled = errors.New("campaign: worker killed")

// poolMetrics are the sharded executor's telemetry instruments; with no
// registry every field is nil and records nothing.
type poolMetrics struct {
	units       *obs.Gauge
	done        *obs.Gauge
	quarantined *obs.Counter
	retries     *obs.Counter
	restarts    *obs.Counter
	shardDone   []*obs.Gauge
	shardPend   []*obs.Gauge
}

func newPoolMetrics(r *obs.Registry, shards int) poolMetrics {
	m := poolMetrics{
		units:       r.Gauge("memcontention_campaign_units", "Experiment units in the sharded campaign.", nil),
		done:        r.Gauge("memcontention_campaign_units_done", "Experiment units completed (journaled), all shards.", nil),
		quarantined: r.Counter("memcontention_campaign_units_quarantined_total", "Units quarantined after exhausting their retry budget.", nil),
		retries:     r.Counter("memcontention_campaign_unit_retries_total", "Unit attempts retried after a failure.", nil),
		restarts:    r.Counter("memcontention_campaign_worker_restarts_total", "Workers restarted by the pool after a kill.", nil),
	}
	for i := 0; i < shards; i++ {
		lbl := obs.L{"shard": fmt.Sprintf("%d", i)}
		m.shardDone = append(m.shardDone, r.Gauge("memcontention_campaign_shard_units_done", "Completed units by home shard.", lbl))
		m.shardPend = append(m.shardPend, r.Gauge("memcontention_campaign_shard_units_pending", "Pending units by home shard.", lbl))
	}
	return m
}

// shardPool is the in-process executor: Workers goroutines, each a
// leaseWorker over Dir/leases with its own lease owner, worker w on home
// shard w. Beyond what a remote worker does, the pool restarts killed
// workers, quarantines units that exhaust their retry budget instead of
// stopping, and holds every lease until its workers have joined. The
// methods the shared loop calls are nil-receiver-safe.
type shardPool struct {
	opts      ShardOptions
	m         poolMetrics
	completed atomic.Int64 // units journaled, earlier runs included
	restarts  atomic.Int64

	mu sync.Mutex
	// memlint:guard mu
	done map[string]bool // the keys journaled before the run, plus every unit finished since
	// memlint:guard mu
	quar map[string]QuarantineRecord
	// memlint:guard mu
	kept []keptLease
}

// keptLease is a lease a pool worker is done with, and whether the
// worker drained its shard under it.
type keptLease struct {
	held     *lease.Held
	complete bool
}

// publish sets the progress gauges and the fleet plane's shard views.
func (p *shardPool) publish(prog ProgressReport, fo *fleetObs) {
	p.m.units.Set(float64(prog.Units))
	p.m.done.Set(float64(prog.Done))
	for _, sp := range prog.Shards {
		p.m.shardDone[sp.Shard].Set(float64(sp.Done))
		p.m.shardPend[sp.Shard].Set(float64(sp.Pending))
		fo.shardView(sp)
	}
}

// kill consults KillHook before a unit starts.
func (p *shardPool) kill(shard int, key string) bool {
	return p != nil && p.opts.KillHook != nil && p.opts.KillHook(shard, key)
}

// fault consults FaultHook before a unit attempt.
func (p *shardPool) fault(key string, attempt int) error {
	if p == nil || p.opts.FaultHook == nil {
		return nil
	}
	return p.opts.FaultHook(key, attempt)
}

// retried counts a retried unit attempt.
func (p *shardPool) retried() {
	if p != nil {
		p.m.retries.Inc()
	}
}

// quarantined reports whether the pool gave up on key.
func (p *shardPool) quarantined(key string) bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.quar[key]
	return ok
}

// quarantine records a unit that exhausted its retry budget; the pool's
// workers skip it from now on.
func (p *shardPool) quarantine(uerr *UnitError) {
	p.mu.Lock()
	p.quar[uerr.Key] = QuarantineRecord{Key: uerr.Key, Shard: uerr.Shard, Attempts: uerr.Attempts, Error: uerr.Error()}
	p.mu.Unlock()
	p.m.quarantined.Inc()
	p.m.shardPend[uerr.Shard].Add(-1)
}

// unitDone advances the progress gauges by one journaled unit and
// reports the running total to ShardOptions.UnitDone.
func (p *shardPool) unitDone(shard int, key string) {
	p.mu.Lock()
	p.done[key] = true
	p.mu.Unlock()
	n := int(p.completed.Add(1))
	p.m.done.Set(float64(n))
	p.m.shardDone[shard].Add(1)
	p.m.shardPend[shard].Add(-1)
	if p.opts.UnitDone != nil {
		p.opts.UnitDone(n)
	}
}

// keep takes over a lease a worker is done with (or was killed under).
func (p *shardPool) keep(held *lease.Held, complete bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.kept = append(p.kept, keptLease{held: held, complete: complete})
}

// supervise runs one pool worker: the pending units of its pre-claimed
// home shard (none when held is nil), then — each time KillHook kills
// it — the shared scan loop again. The restart keeps the worker's lease
// owner, and Acquire lets an owner re-claim its own live lease at the
// next epoch, so recovery never waits out the TTL.
func (p *shardPool) supervise(ctx context.Context, w *leaseWorker, held *lease.Held, pending []unit) error {
	var err error
	if held != nil {
		_, err = w.runShard(ctx, held, pending)
	}
	for errors.Is(err, errWorkerKilled) {
		p.restarts.Add(1)
		p.m.restarts.Inc()
		err = w.work(ctx)
	}
	return err
}

// finish settles the pool after its workers have joined, in a fixed
// order so the fleet plane stays byte-deterministic however the workers
// interleaved: leases are released — and drained shards journaled as
// complete — in (shard, epoch) order, then quarantined units in key
// order. It returns the final progress of units and the quarantine
// records, sorted by key.
func (p *shardPool) finish(fo *fleetObs, units []unit) (ProgressReport, []QuarantineRecord, error) {
	p.mu.Lock()
	kept := p.kept
	p.kept = nil
	quar := make([]QuarantineRecord, 0, len(p.quar))
	for _, r := range p.quar {
		quar = append(quar, r)
	}
	prog := tally(units, p.opts.Workers, p.done, quar)
	p.mu.Unlock()
	prog.Restarts = int(p.restarts.Load())
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i].held, kept[j].held
		return a.Shard() < b.Shard() || a.Shard() == b.Shard() && a.Epoch() < b.Epoch()
	})
	sort.Slice(quar, func(i, j int) bool { return quar[i].Key < quar[j].Key })
	var errs []error
	for _, k := range kept {
		errs = append(errs, release(fo, k.held, k.complete))
	}
	for _, r := range quar {
		fo.emit(EventUnitQuarantine, r.Shard, 0, r.Key, r.Error)
	}
	return prog, quar, errors.Join(errs...)
}

// runPool executes units on opts.Workers lease workers that share one
// fleet plane (nil for temp-dir runs), then writes quarantine.jsonl. A
// context cancellation drains the pool at unit boundaries; the first
// worker failure stops the others.
func runPool(cfg Config, opts ShardOptions, units []unit, fo *fleetObs) (ProgressReport, []QuarantineRecord, error) {
	set, err := checkpoint.OpenShardSet(opts.Dir)
	if err != nil {
		return ProgressReport{}, nil, err
	}
	done, err := journaledKeys(opts.Dir)
	if err != nil {
		return ProgressReport{}, nil, err
	}
	prog := tally(units, opts.Workers, done, nil)
	p := &shardPool{opts: opts, m: newPoolMetrics(cfg.Registry, opts.Workers), done: done, quar: make(map[string]QuarantineRecord)}
	p.completed.Store(int64(prog.Done))
	p.publish(prog, fo)
	fo.beacon()

	ctx, cancel := context.WithCancel(cfg.ctx())
	defer cancel()
	wcfg := cfg
	wcfg.Context = ctx
	ro := RemoteOptions{
		Dir: opts.Dir, Shards: opts.Workers, MaxAttempts: opts.MaxAttempts,
		Backoff: opts.Backoff, Sleep: opts.Sleep, UnitDone: p.unitDone,
	}.withDefaults()
	self, err := lease.SelfOwner()
	if err != nil {
		return prog, nil, err
	}
	byShard := byHomeShard(units, opts.Workers)

	// Claim the home shards that have work in shard order before any
	// worker starts: concurrent claims would interleave the claim events.
	// Owner tokens are stable per (Worker, shard), so a run resumed after
	// a crash re-claims its own leases instead of waiting out the TTL.
	workers := make([]*leaseWorker, opts.Workers)
	claims := make([]*lease.Held, opts.Workers)
	pending := make([][]unit, opts.Workers)
	for i := range workers {
		owner := self
		owner.Token = fmt.Sprintf("%s-%d", opts.Worker, i)
		mgr, err := lease.NewManager(lease.Config{
			Dir: filepath.Join(opts.Dir, LeaseDir), Clock: opts.Clock, Owner: owner, Registry: cfg.Registry,
		})
		if err == nil {
			workers[i] = &leaseWorker{cfg: wcfg, opts: ro, set: set, mgr: mgr, fo: fo, byShard: byShard, pool: p}
			if pending[i] = workers[i].pending(i, done); len(pending[i]) > 0 {
				claims[i], err = workers[i].claim(i)
			}
		}
		if err != nil {
			for _, h := range claims[:i] {
				if h != nil {
					p.keep(h, false)
				}
			}
			_, _, ferr := p.finish(fo, units)
			return prog, nil, errors.Join(err, ferr)
		}
	}

	errs := make([]error, len(workers))
	var wg sync.WaitGroup
	for i, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if errs[i] = p.supervise(ctx, w, claims[i], pending[i]); errs[i] != nil {
				cancel()
			}
		}()
	}
	wg.Wait()
	prog, quar, ferr := p.finish(fo, units)
	errs = append(errs, ferr, writeQuarantine(filepath.Join(opts.Dir, QuarantineFile), quar))
	p.publish(prog, fo)
	if err := cfg.ctx().Err(); err != nil {
		return prog, quar, fmt.Errorf("campaign: sharded run interrupted: %w", err)
	}
	// A worker canceled because a peer failed reports the cancellation;
	// the peer's error is the cause.
	for _, e := range errs {
		if e != nil && !checkpoint.IsCanceled(e) {
			return prog, quar, e
		}
	}
	if err := errors.Join(errs...); err != nil {
		return prog, quar, err
	}
	// Every worker returned cleanly, so each unit must be journaled or
	// quarantined; the assembly would silently recompute one that is not.
	if pending := prog.Units - prog.Done - prog.Quarantined; pending > 0 {
		return prog, quar, fmt.Errorf("campaign: sharded run ended with %d units neither journaled nor quarantined", pending)
	}
	return prog, quar, nil
}

// ShardResult is the outcome of a sharded campaign run.
type ShardResult struct {
	// Artifacts holds the assembled pipeline artifacts (ShardedPipeline
	// only; nil when units were quarantined).
	Artifacts *Artifacts
	// Platforms holds the assembled evaluations in input order
	// (ShardedEvaluate only; nil when units were quarantined).
	Platforms []*eval.PlatformResult
	// Quarantine lists the quarantined units, sorted by key; the same
	// records are in quarantine.jsonl under Dir.
	Quarantine []QuarantineRecord
	// Progress is the final per-shard completion report.
	Progress ProgressReport
	// Dir is the shard-set directory (journal files, merged journal,
	// quarantine report).
	Dir string
}

// shardedRun is the common core of ShardedPipeline and ShardedEvaluate:
// enumerate units, execute them on the worker pool, merge the shard
// journals and assemble through the sequential path against the merged
// journal.
func shardedRun(cfg Config, opts ShardOptions, names []string,
	enumerate func(Config, []string) ([]unit, error), assemble assembler) (*ShardResult, error) {
	cfg = cfg.withDefaults()
	if len(names) == 0 {
		names = TestbedNames()
	}
	opts = opts.withDefaults()
	persistent := opts.Dir != ""
	if opts.Dir == "" {
		tmp, err := os.MkdirTemp("", "memcontention-shards-*")
		if err != nil {
			return nil, fmt.Errorf("campaign: shard dir: %w", err)
		}
		defer os.RemoveAll(tmp)
		opts.Dir = tmp
	}

	units, err := enumerate(cfg, names)
	if err != nil {
		return nil, err
	}
	var fo *fleetObs
	if persistent {
		if fo, err = newFleetObs(opts.Dir, opts.Worker, "", 0, opts.Clock, cfg.Registry); err != nil {
			return nil, err
		}
		fo.join()
	}
	prog, quar, err := runPool(cfg, opts, units, fo)
	detail := ""
	if len(quar) > 0 {
		detail = fmt.Sprintf("%d units quarantined", len(quar))
	}
	fo.finish(err, true, detail)
	res := &ShardResult{Quarantine: quar, Progress: prog, Dir: opts.Dir}
	if err != nil {
		return res, err
	}
	if len(quar) > 0 {
		return res, &QuarantineError{Records: quar, Path: filepath.Join(opts.Dir, QuarantineFile)}
	}
	return res, assembleMerged(cfg, opts.Dir, names, res, assemble)
}

// ShardedPipeline is Pipeline on the in-process sharded executor: the
// same units, the same artifacts — proven byte-identical — but executed
// by opts.Workers lease workers with per-shard journals, retries,
// quarantine and kill-and-resume via opts.Dir.
func ShardedPipeline(cfg Config, opts ShardOptions, names []string) (*ShardResult, error) {
	return shardedRun(cfg, opts, names, pipelineUnits, assemblePipeline)
}

// ShardedEvaluate is EvaluatePlatforms (plus the replication sweep when
// cfg.Replications > 1) on the in-process sharded executor.
func ShardedEvaluate(cfg Config, opts ShardOptions, names []string) (*ShardResult, error) {
	return shardedRun(cfg, opts, names, evalUnits,
		func(mcfg Config, names []string, res *ShardResult) error {
			results, err := EvaluatePlatforms(mcfg, names)
			if err != nil {
				return err
			}
			res.Platforms = results
			if mcfg.Replications > 1 {
				rep, err := Replicate(mcfg, names, results)
				if err != nil {
					return err
				}
				if res.Artifacts == nil {
					res.Artifacts = &Artifacts{Seed: mcfg.Seed, Platforms: results}
				}
				res.Artifacts.Replications = rep
			}
			return nil
		})
}

// assembler replays a sequential assembly (cfg.Journal holds every
// unit) into res.
type assembler func(cfg Config, names []string, res *ShardResult) error

// assemblePipeline assembles the full pipeline artifacts.
func assemblePipeline(cfg Config, names []string, res *ShardResult) error {
	art, err := Pipeline(cfg, names)
	if err != nil {
		return err
	}
	res.Artifacts = art
	return nil
}

// assembleMerged is the deterministic merge: every shard journal in dir
// — all shards, all epochs — collapses into dir/merged.ckpt (sorted by
// key, byte-deterministic), and the sequential assembly replays against
// it. Every unit hits the journal, so the artifacts are the sequential
// path's artifacts, byte for byte, however the units were scheduled.
func assembleMerged(cfg Config, dir string, names []string, res *ShardResult, assemble assembler) error {
	entries, err := journaled(dir)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "merged.ckpt")
	if err := checkpoint.WriteJournal(path, entries); err != nil {
		return err
	}
	merged, err := checkpoint.Open(path)
	if err != nil {
		return err
	}
	defer merged.Close()
	cfg.Journal = merged
	cfg.Context = nil // assembly reads the journal; nothing to cancel
	return assemble(cfg, names, res)
}
