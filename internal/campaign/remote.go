package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"time"

	"memcontention/internal/atomicio"
	"memcontention/internal/checkpoint"
	"memcontention/internal/lease"
	"memcontention/internal/sweep"
)

// This file is the remote multi-process campaign plane: several worker
// processes — started independently, possibly on different hosts sharing
// one filesystem — cooperate on a single campaign directory with no
// coordinator process. Coordination is entirely lease-based
// (internal/lease): a worker claims a shard by acquiring its lease,
// journals completed units into an epoch-suffixed shard file
// (shard-NNNN.eK.ckpt), heartbeats while it works, and releases the
// lease when the shard is drained. A worker that dies stops
// heartbeating; after TTL+grace any survivor takes the shard over under
// a higher fencing epoch and resumes from the union of the shard's
// journal files. A deposed zombie that is still running can only append
// to its own dead-epoch file — harmless, because campaigns are
// deterministic in (seed, config) and the merge unions epochs with
// byte-equality conflict detection. The in-process sharded executor
// (sharded.go) runs the same scan-claim-execute loop, leaseWorker, as
// goroutines over a local directory.

// ManifestFile is the campaign manifest written into the campaign
// directory: the (seed, platforms, shards, replications) tuple every
// joining worker must agree on. Unit keys and home-shard assignment
// derive from it, so two workers with different manifests would journal
// disjoint or — worse — conflicting unit sets.
const ManifestFile = "campaign.json"

// LeaseDir is the subdirectory of a campaign directory holding the
// shard lease files and epoch-claim markers.
const LeaseDir = "leases"

// Manifest pins the parameters of a remote campaign. The first process
// to touch the campaign directory writes it (durably, atomically);
// everyone else verifies against it.
type Manifest struct {
	Seed         uint64   `json:"seed"`
	Platforms    []string `json:"platforms"`
	Shards       int      `json:"shards"`
	Replications int      `json:"replications"`
}

// ManifestMismatchError is the structured rejection of a worker whose
// parameters disagree with the campaign's manifest: which field, what
// the manifest pins, what the worker asked for. Joining with different
// parameters would silently corrupt unit-key assignment, so this is
// fatal, never papered over.
type ManifestMismatchError struct {
	Path  string
	Field string
	Have  string // what the on-disk manifest pins
	Want  string // what this invocation asked for
}

func (e *ManifestMismatchError) Error() string {
	return fmt.Sprintf("campaign: manifest %s pins %s=%s but this invocation wants %s (pass matching flags or a fresh -dir)",
		e.Path, e.Field, e.Have, e.Want)
}

// LoadManifest reads the manifest of an existing campaign directory.
// A missing file is reported via os.ErrNotExist (callers joining an
// existing campaign may fall back to their own defaults and let
// EnsureManifest write them).
func LoadManifest(dir string) (Manifest, error) {
	path := filepath.Join(dir, ManifestFile)
	data, err := os.ReadFile(path)
	if err != nil {
		return Manifest{}, fmt.Errorf("campaign: manifest %s: %w", path, err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, fmt.Errorf("campaign: manifest %s: %w", path, err)
	}
	if err := m.validate(); err != nil {
		return Manifest{}, fmt.Errorf("campaign: manifest %s: %w", path, err)
	}
	return m, nil
}

func (m Manifest) validate() error {
	switch {
	case m.Shards < 1:
		return fmt.Errorf("shards = %d, must be >= 1", m.Shards)
	case len(m.Platforms) == 0:
		return errors.New("no platforms")
	case m.Seed == 0:
		return errors.New("seed 0 (the campaign default is 1; 0 means the manifest was never normalised)")
	case m.Replications < 0:
		return fmt.Errorf("replications = %d, must be >= 0", m.Replications)
	}
	return nil
}

// EnsureManifest writes want as the campaign manifest if none exists
// (durably: atomic write, directory chain fsynced) or verifies the
// existing one matches field by field, returning the authoritative
// manifest either way. Creation races between workers are benign: both
// write identical bytes (the encoding is canonical), and a worker that
// loses the rename race re-reads a manifest equal to its own.
func EnsureManifest(dir string, want Manifest) (Manifest, error) {
	if err := want.validate(); err != nil {
		return Manifest{}, fmt.Errorf("campaign: manifest for %s: %w", dir, err)
	}
	path := filepath.Join(dir, ManifestFile)
	if err := atomicio.MkdirAll(dir, 0o755); err != nil {
		return Manifest{}, fmt.Errorf("campaign: manifest %s: %w", path, err)
	}
	have, err := LoadManifest(dir)
	if errors.Is(err, os.ErrNotExist) {
		data, merr := json.MarshalIndent(want, "", "  ")
		if merr != nil {
			return Manifest{}, fmt.Errorf("campaign: manifest %s: %w", path, merr)
		}
		if werr := atomicio.WriteFile(path, append(data, '\n'), 0o644); werr != nil {
			return Manifest{}, fmt.Errorf("campaign: manifest %s: %w", path, werr)
		}
		return want, nil
	}
	if err != nil {
		return Manifest{}, err
	}
	mismatch := func(field, h, w string) (Manifest, error) {
		return Manifest{}, &ManifestMismatchError{Path: path, Field: field, Have: h, Want: w}
	}
	switch {
	case have.Seed != want.Seed:
		return mismatch("seed", fmt.Sprint(have.Seed), fmt.Sprint(want.Seed))
	case !reflect.DeepEqual(have.Platforms, want.Platforms):
		return mismatch("platforms", fmt.Sprintf("%v", have.Platforms), fmt.Sprintf("%v", want.Platforms))
	case have.Shards != want.Shards:
		return mismatch("shards", fmt.Sprint(have.Shards), fmt.Sprint(want.Shards))
	case have.Replications != want.Replications:
		return mismatch("replications", fmt.Sprint(have.Replications), fmt.Sprint(want.Replications))
	}
	return have, nil
}

// ParseWorkers parses a -workers flag value: a non-negative worker
// count ("0", "8") for the in-process executors, or the literal
// "remote" to finalize a lease-coordinated remote campaign
// (docs/campaigns.md).
func ParseWorkers(s string) (workers int, remote bool, err error) {
	s = strings.TrimSpace(s)
	if strings.EqualFold(s, "remote") {
		return 0, true, nil
	}
	n, aerr := strconv.Atoi(s)
	if aerr != nil || n < 0 {
		return 0, false, fmt.Errorf(`campaign: -workers must be a non-negative worker count or "remote", got %q`, s)
	}
	return n, false, nil
}

// RemoteOptions parameterises one remote worker (or the finalizer) of a
// lease-coordinated campaign.
type RemoteOptions struct {
	// Dir is the campaign directory: shard journals at the top level,
	// leases/ underneath, campaign.json pinning the parameters.
	// Required — remote campaigns have no anonymous temp-dir mode, the
	// directory is the rendezvous.
	Dir string
	// Shards is the shard count pinned into the manifest when this
	// worker creates the campaign (0: GOMAXPROCS). Joining workers must
	// agree with the manifest.
	Shards int
	// Lease carries the liveness parameters (TTL, Heartbeat, Grace,
	// Clock, Owner); Dir is filled in from the campaign directory. The
	// zero value uses the lease defaults (15s TTL, 3s heartbeat).
	Lease lease.Config
	// MaxAttempts bounds in-process retries of a failing unit before the
	// worker gives up on the campaign (default 3). Remote campaigns have
	// no quarantine: a unit this worker cannot complete is left for
	// another worker (or operator) — the lease is released, nothing is
	// marked poisoned on disk.
	MaxAttempts int
	// Backoff returns the delay before retry `attempt` (1-based); the
	// default doubles from 10ms and saturates at 1s.
	Backoff func(attempt int) time.Duration
	// Sleep waits between heartbeats, retries and idle rescans; the
	// default honors ctx. Tests inject manual gates here to freeze a
	// worker mid-shard (the in-process stand-in for SIGSTOP).
	Sleep func(ctx context.Context, d time.Duration) error
	// Poll is the idle rescan interval: how often a worker with nothing
	// claimable re-examines the shards, and how often the finalizer
	// re-checks completion (default: the lease heartbeat interval).
	Poll time.Duration
	// UnitStart, when set, runs before each unit execution — after the
	// fencing check, so a test that parks a worker here and lets its
	// lease expire is guaranteed the unit still runs to completion into
	// the dead epoch (the documented zombie write path).
	UnitStart func(shard int, key string)
	// UnitDone, when set, runs after each unit is durably journaled.
	UnitDone func(shard int, key string)
}

// withDefaults is the one defaults table of both executors: the
// in-process pool builds its RemoteOptions from ShardOptions and fills
// them here.
func (o RemoteOptions) withDefaults() RemoteOptions {
	if o.Shards <= 0 {
		o.Shards = sweep.DefaultWorkers()
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.Backoff == nil {
		o.Backoff = func(attempt int) time.Duration {
			d := 10 * time.Millisecond << uint(attempt-1)
			if d > time.Second {
				d = time.Second
			}
			return d
		}
	}
	if o.Sleep == nil {
		o.Sleep = sleepCtx
	}
	if o.Poll <= 0 {
		o.Poll = o.Lease.WithDefaults().Heartbeat
	}
	return o
}

// sleepCtx waits d, returning early with the context's error when ctx
// ends first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// RemoteReport summarises one worker's share of a remote campaign.
type RemoteReport struct {
	// Owner is the lease identity the worker ran under.
	Owner lease.Owner
	// Claimed lists the shards this worker acquired, in acquisition
	// order (a shard re-acquired after fencing or release appears
	// again).
	Claimed []int
	// Units counts the units this worker executed and journaled.
	Units int
	// Fenced counts leases this worker lost to a higher epoch mid-shard
	// (it stopped at the next unit boundary; its journal appends are in
	// dead-epoch files).
	Fenced int
	// RenewErrors counts transient heartbeat-renewal failures. They are
	// not fatal: a worker whose renewals fail simply looks dead and
	// loses its leases to takeover, and epoch fencing keeps its journal
	// writes isolated regardless.
	RenewErrors int
	// Drained reports whether the worker observed the whole campaign
	// complete (every unit journaled) before returning.
	Drained bool
	// ObsErrors counts beacon and event-journal writes that failed.
	// Observability never kills a worker — emission failures are counted
	// here instead of propagating — but a nonzero count means memtop's
	// view of this worker is incomplete.
	ObsErrors int
}

// RemoteWorker joins the remote campaign in opts.Dir and works it until
// every unit of every shard is journaled (Drained=true), the context is
// canceled, or a unit fails MaxAttempts times. It scans the shards in
// order, skips complete ones, claims unleased (or stale-leased) ones,
// and for each claim executes the pending units into that claim's
// epoch journal while a heartbeat goroutine renews the lease.
//
// Crash safety falls out of the layering: a SIGKILLed worker leaves its
// lease to go stale and its journal prefix intact; a canceled worker
// (first SIGINT under checkpoint.SignalContext) stops at the next unit
// boundary and releases its leases so successors need not wait out the
// TTL; a deposed worker finishes its in-flight unit into the dead epoch
// and stops at the fencing check.
func RemoteWorker(cfg Config, opts RemoteOptions, names []string) (*RemoteReport, error) {
	cfg, opts, man, set, err := remoteSetup(cfg, opts, names)
	if err != nil {
		return nil, err
	}
	units, err := pipelineUnits(cfg, man.Platforms)
	if err != nil {
		return nil, err
	}
	lcfg := opts.Lease
	lcfg.Dir = filepath.Join(opts.Dir, LeaseDir)
	lcfg.Registry = cfg.Registry
	mgr, err := lease.NewManager(lcfg)
	if err != nil {
		return nil, err
	}
	owner := mgr.Owner()
	fo, err := newFleetObs(opts.Dir, owner.Token, owner.Host, owner.PID, lcfg.WithDefaults().Clock, cfg.Registry)
	if err != nil {
		return nil, err
	}
	fo.join()
	w := &leaseWorker{cfg: cfg, opts: opts, set: set, mgr: mgr, fo: fo, byShard: byHomeShard(units, man.Shards)}
	w.report.Owner = owner
	err = w.work(cfg.ctx())
	// Funnel every exit through one final beacon + lifecycle event, so
	// the fleet plane can tell a clean exit from a crash: a killed worker
	// never reaches this and leaves a stale "running" beacon behind.
	fo.finish(err, w.report.Drained, "")
	w.report.ObsErrors = fo.errors()
	return &w.report, err
}

// leaseWorker runs the campaign's one scheduling loop — scan the shards,
// claim a lease, execute the shard's pending units — for a memworker
// process (RemoteWorker) or for one goroutine of the in-process pool
// (ShardedPipeline and ShardedEvaluate; pool set).
type leaseWorker struct {
	cfg     Config
	opts    RemoteOptions
	set     *checkpoint.ShardSet
	mgr     *lease.Manager
	fo      *fleetObs
	byShard [][]unit
	pool    *shardPool // nil for remote workers
	report  RemoteReport
}

// work scans the shards until every unit is journaled (report.Drained),
// the context ends, or a shard fails. The caller owns the final beacon
// and lifecycle event, so every exit path funnels through it.
func (w *leaseWorker) work(ctx context.Context) error {
	for {
		done, err := journaledKeys(w.set.Dir())
		if err != nil {
			return err
		}
		progressed, allDone := false, true
		for shard := range w.byShard {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("campaign: remote worker: %w", err)
			}
			if len(w.pending(shard, done)) == 0 {
				continue
			}
			allDone = false
			held, err := w.claim(shard)
			if errors.Is(err, lease.ErrHeld) {
				continue // a live owner is on it; move on
			}
			if err != nil {
				return err
			}
			// Re-scan after the claim: the previous owner may have
			// journaled more units — or drained the shard entirely —
			// between our pending scan and its release. Acquire succeeded,
			// so the old owner's journals are closed and on disk; working
			// from this second scan means healthy handoffs never execute
			// a unit twice (only a fenced zombie's in-flight unit or a
			// split-claim race can overlap, each into its own epoch file
			// with byte-identical payloads).
			if done, err = journaledKeys(w.set.Dir()); err != nil {
				w.settle(held, false)
				return err
			}
			pending := w.pending(shard, done)
			if len(pending) == 0 {
				if err := w.settle(held, false); err != nil {
					return err
				}
				continue
			}
			ran, err := w.runShard(ctx, held, pending)
			if err != nil {
				return err
			}
			progressed = progressed || ran > 0
			// Peers kept journaling while this shard ran.
			if done, err = journaledKeys(w.set.Dir()); err != nil {
				return err
			}
		}
		if allDone {
			w.report.Drained = true
			return nil
		}
		if progressed {
			continue
		}
		// Everything pending is leased by live peers (or fenced away
		// from us). In-process peers never die for good — the pool
		// restarts them — so a pool worker is done. A remote worker
		// waits one poll interval for its peers to finish or die.
		if w.pool != nil {
			return nil
		}
		if err := w.opts.Sleep(ctx, w.opts.Poll); err != nil {
			return fmt.Errorf("campaign: remote worker: %w", err)
		}
	}
}

// remoteSetup is the shared preamble of RemoteWorker and RemoteMerge:
// defaults, manifest rendezvous (the manifest overrides cfg and names —
// it is the campaign's authority), shard set.
func remoteSetup(cfg Config, opts RemoteOptions, names []string) (Config, RemoteOptions, Manifest, *checkpoint.ShardSet, error) {
	if opts.Dir == "" {
		return cfg, opts, Manifest{}, nil, errors.New("campaign: remote campaign needs a directory (RemoteOptions.Dir)")
	}
	// Zero-valued knobs inherit the existing campaign's manifest — the
	// common "join (or finalize) whatever is running there" case: a nil
	// platform list, Seed 0, Shards 0 and Replications <= 1 all mean
	// "the campaign's own value". Non-zero values are pinned and any
	// disagreement with the manifest is rejected by EnsureManifest
	// below with the exact field. Defaults apply only after
	// inheritance, so a fresh directory still gets seed 1 and
	// GOMAXPROCS shards.
	if have, lerr := LoadManifest(opts.Dir); lerr == nil {
		if len(names) == 0 {
			names = have.Platforms
		}
		if cfg.Seed == 0 {
			cfg.Seed = have.Seed
		}
		if cfg.Replications <= 1 {
			cfg.Replications = have.Replications
		}
		if opts.Shards == 0 {
			opts.Shards = have.Shards
		}
	} else if !errors.Is(lerr, os.ErrNotExist) {
		return cfg, opts, Manifest{}, nil, lerr
	}
	cfg = cfg.withDefaults()
	opts = opts.withDefaults()
	if len(names) == 0 {
		names = TestbedNames()
	}
	set, err := checkpoint.OpenShardSet(opts.Dir)
	if err != nil {
		return cfg, opts, Manifest{}, nil, err
	}
	repl := cfg.Replications
	if repl <= 1 {
		repl = 0 // 0 and 1 both mean a single replication; canonicalise
	}
	man, err := EnsureManifest(opts.Dir, Manifest{
		Seed:         cfg.Seed,
		Platforms:    names,
		Shards:       opts.Shards,
		Replications: repl,
	})
	if err != nil {
		return cfg, opts, Manifest{}, nil, err
	}
	cfg.Seed = man.Seed
	cfg.Replications = man.Replications
	return cfg, opts, man, set, nil
}

// pending lists the units of shard that are neither journaled (done)
// nor quarantined by the worker's pool.
func (w *leaseWorker) pending(shard int, done map[string]bool) []unit {
	var out []unit
	for _, u := range w.byShard[shard] {
		if !done[u.Key] && !w.pool.quarantined(u.Key) {
			out = append(out, u)
		}
	}
	return out
}

// claim acquires shard's lease. The epoch floor is the highest epoch in
// the shard's journal file names: even if the lease file was corrupted
// or deleted, a surviving zombie journal forces the new epoch past it.
func (w *leaseWorker) claim(shard int) (*lease.Held, error) {
	floor, err := w.set.MaxEpoch(shard)
	if err != nil {
		return nil, err
	}
	held, err := w.mgr.Acquire(shard, floor)
	if err != nil {
		return nil, err
	}
	w.report.Claimed = append(w.report.Claimed, shard)
	w.fo.claimed(held)
	return held, nil
}

// runShard executes pending units under an acquired lease: journal
// opened at the lease's epoch, heartbeat goroutine renewing on the
// lease interval, fencing checked between units. It returns the number
// of units completed and always closes the journal and settles the
// lease (Release is a no-op on a fenced lease, so a new owner's lease
// file is never disturbed).
func (w *leaseWorker) runShard(ctx context.Context, held *lease.Held, pending []unit) (int, error) {
	shard := held.Shard()
	j, err := w.set.OpenEpochShard(shard, held.Epoch())
	if err != nil {
		w.settle(held, false)
		return 0, err
	}
	j.SetRegistry(w.cfg.Registry)
	w.fo.shardView(ShardProgress{Shard: shard, Done: len(w.byShard[shard]) - len(pending), Pending: len(pending)})

	// The heartbeat goroutine sleeps first — Acquire just wrote a fresh
	// heartbeat — then renews until fenced or stopped. Its counters are
	// published to the report only after <-hbDone (the channel close is
	// the happens-before edge). The pool's Sleep is its retry backoff
	// alone (tests inject a no-op there), so its heartbeat waits on a
	// real timer instead of spinning on Renew.
	beat := w.opts.Sleep
	if w.pool != nil {
		beat = sleepCtx
	}
	hbCtx, hbStop := context.WithCancel(ctx)
	hbDone := make(chan struct{})
	var renewErrs int
	go func() {
		defer close(hbDone)
		for {
			// Sleep honors hbCtx, but it is an injected func value whose
			// body the analyzer cannot see; checking the context here makes
			// the termination path explicit (and survives a Sleep stub that
			// ignores cancellation, as some tests install).
			if hbCtx.Err() != nil {
				return
			}
			if err := beat(hbCtx, w.mgr.Heartbeat()); err != nil {
				return
			}
			if err := held.Renew(); err != nil {
				if errors.Is(err, lease.ErrFenced) {
					return
				}
				renewErrs++
				w.fo.renewFailure(shard, held.Epoch(), err)
				continue
			}
			w.fo.beacon() // proof of life even while a long unit runs
		}
	}()

	ran := 0
	var runErr error
	for _, u := range pending {
		if err := ctx.Err(); err != nil {
			runErr = fmt.Errorf("campaign: remote worker: %w", err)
			break
		}
		if held.Fenced() {
			break
		}
		if w.pool.kill(shard, u.Key) {
			runErr = errWorkerKilled
			break
		}
		if w.opts.UnitStart != nil {
			w.opts.UnitStart(shard, u.Key)
		}
		if err := w.runUnit(ctx, j, u); err != nil {
			if checkpoint.IsCanceled(err) {
				runErr = fmt.Errorf("campaign: remote worker: %w", err)
				break
			}
			uerr := &UnitError{Key: u.Key, Shard: shard, Attempts: w.opts.MaxAttempts, Err: err}
			if w.pool == nil {
				runErr = uerr
				break
			}
			w.pool.quarantine(uerr)
			continue
		}
		ran++
		w.fo.unitDone(shard)
		if w.opts.UnitDone != nil {
			w.opts.UnitDone(shard, u.Key)
		}
	}

	hbStop()
	<-hbDone
	w.report.Units += ran
	w.report.RenewErrors += renewErrs
	// Fencing is judged once, after the heartbeat goroutine has joined:
	// whether the unit loop saw it or only the last renewal did, the
	// fence is counted — and journaled — exactly once per lost lease.
	fenced := held.Fenced()
	if fenced {
		w.report.Fenced++
		w.fo.fenced(held)
	}
	cerr := j.Close()
	serr := w.settle(held, runErr == nil && cerr == nil && !fenced && ran == len(pending))
	if runErr == nil {
		runErr = cerr
	}
	if runErr == nil {
		runErr = serr
	}
	return ran, runErr
}

// settle ends the worker's use of a lease. A remote worker releases it
// at once, so a successor claims the shard without waiting out the
// TTL. A pool worker hands it to the pool, which holds every lease
// until all its workers have joined (shardPool.finish).
func (w *leaseWorker) settle(held *lease.Held, complete bool) error {
	if w.pool != nil {
		w.pool.keep(held, complete)
		return nil
	}
	return release(w.fo, held, complete)
}

// release drops a lease and, if its owner drained the shard, journals
// the shard's completion.
func release(fo *fleetObs, held *lease.Held, complete bool) error {
	err := held.Release()
	fo.leaseDropped(held.Shard())
	if complete && err == nil {
		fo.shardComplete(held)
	}
	return err
}

// runUnit is the one retry loop: it runs u until an attempt succeeds,
// backing off between attempts, and returns the last failure once
// MaxAttempts attempts have failed. A panic in unit code fails its
// attempt like an error does; a canceled attempt did not fail and ends
// the loop at once. A completed unit must have journaled its key, so it
// can never silently vanish from the merge.
func (w *leaseWorker) runUnit(ctx context.Context, j *checkpoint.Journal, u unit) error {
	var last error
	for attempt := 1; attempt <= w.opts.MaxAttempts; attempt++ {
		if attempt > 1 {
			w.pool.retried()
			if err := w.opts.Sleep(ctx, w.opts.Backoff(attempt-1)); err != nil {
				return err
			}
		}
		err := w.pool.fault(u.Key, attempt)
		if err == nil {
			err = attemptUnit(w.cfg, j, u)
		}
		if err == nil || checkpoint.IsCanceled(err) {
			return err
		}
		last = err
	}
	return last
}

// attemptUnit runs one attempt of u into journal j, turning a panic in
// unit code into the attempt's error.
func attemptUnit(cfg Config, j *checkpoint.Journal, u unit) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("campaign: unit %s panicked: %v", u.Key, p)
		}
	}()
	cfg.Journal = j
	cfg.Workers = 1 // the unit is the parallelism grain
	if err := u.run(cfg); err != nil {
		return err
	}
	if !j.Has(u.Key) {
		return fmt.Errorf("campaign: unit %s completed without journaling its key", u.Key)
	}
	return nil
}

// RemoteIncompleteError reports a finalize attempt on a campaign whose
// workers have not journaled every unit yet (only surfaced when the
// finalizer's context expires while waiting).
type RemoteIncompleteError struct {
	// Missing lists the unit keys not yet journaled, sorted (they are
	// enumerated in deterministic order).
	Missing []string
}

func (e *RemoteIncompleteError) Error() string {
	return fmt.Sprintf("campaign: remote campaign incomplete: %d units not journaled (first: %s)",
		len(e.Missing), e.Missing[0])
}

// RemoteMerge finalizes a remote campaign: it waits (polling on
// opts.Poll, bounded by cfg.Context) until every unit of the manifest's
// pipeline is journaled somewhere in the shard set and every shard with
// assigned units has at least one journal file, then merges all shard
// journals — every epoch, dead ones included — into merged.ckpt with
// byte-equality conflict detection, and replays the sequential pipeline
// assembly against the merged journal. The artifacts are therefore the
// sequential run's artifacts byte for byte, regardless of how many
// workers ran, died, or were fenced: no unit is lost (completeness is
// checked against the enumerated unit list) and none is double-charged
// (duplicate keys must carry identical payloads and collapse to one
// entry).
func RemoteMerge(cfg Config, opts RemoteOptions, names []string) (*ShardResult, error) {
	cfg, opts, man, set, err := remoteSetup(cfg, opts, names)
	if err != nil {
		return nil, err
	}
	units, err := pipelineUnits(cfg, man.Platforms)
	if err != nil {
		return nil, err
	}
	ctx := cfg.ctx()
	for {
		done, err := journaledKeys(opts.Dir)
		if err != nil {
			return nil, err
		}
		var missing []string
		for _, u := range units {
			if !done[u.Key] {
				missing = append(missing, u.Key)
			}
		}
		if len(missing) == 0 {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("campaign: remote merge: %w (%w)", err, &RemoteIncompleteError{Missing: missing})
		}
		if err := opts.Sleep(ctx, opts.Poll); err != nil {
			return nil, fmt.Errorf("campaign: remote merge: %w (%w)", err, &RemoteIncompleteError{Missing: missing})
		}
	}
	// Every unit is journaled; verify per-shard journal presence anyway —
	// a shard with assigned units but no file would mean its units were
	// journaled under a foreign shard's file, i.e. a home-shard bug.
	for shard := 0; shard < man.Shards; shard++ {
		assigned := 0
		for _, u := range units {
			if homeShard(u.Key, man.Shards) == shard {
				assigned++
			}
		}
		if assigned == 0 {
			continue
		}
		files, err := set.ShardFiles(shard)
		if err != nil {
			return nil, err
		}
		if len(files) == 0 {
			return nil, fmt.Errorf("campaign: remote merge: shard %d has %d assigned units but no journal file", shard, assigned)
		}
	}

	res := &ShardResult{Dir: opts.Dir}
	return res, assembleMerged(cfg, opts.Dir, man.Platforms, res, assemblePipeline)
}
