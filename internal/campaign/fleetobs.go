package campaign

import (
	"sort"
	"sync"
	"time"

	"memcontention/internal/checkpoint"
	"memcontention/internal/lease"
	"memcontention/internal/obs"
)

// fleetObs bundles one executor's fleet-observability plane: its event
// journal (events/<worker>.jsonl), its status beacon
// (beacons/<worker>.json) and a rolling throughput window. Remote
// workers and the in-process pool (one fleetObs shared by all its
// workers) both speak through it, so memtop sees one vocabulary
// regardless of how the campaign runs.
//
// Observability must never kill a campaign: every emission failure is
// swallowed into an error counter (surfaced as RemoteReport.ObsErrors)
// instead of propagating. All methods are nil-receiver-safe, so
// executors without a campaign directory simply pass nil.
type fleetObs struct {
	clock obs.Clock
	reg   *obs.Registry
	log   *EventLog
	rate  *obs.Rolling
	dir   string

	mu sync.Mutex
	// memlint:guard mu
	status WorkerStatus
	// memlint:guard mu
	holdings map[int]uint64 // shard -> fencing epoch of held leases
	// memlint:guard mu
	shards map[int]*ShardProgress
	// memlint:guard mu
	errs int
}

// fleetRateWindow sizes the units/s rolling window: long enough that a
// multi-second unit still registers, short enough that a stalled worker
// reads 0 within a minute.
const (
	fleetRateWindow = 30 * time.Second
	fleetRateSlices = 30
)

// newFleetObs opens the event journal and seeds the running beacon for
// one worker of the campaign in dir. The worker id must be path-safe
// (lease owner tokens are hex); a nil clock uses obs.WallClock.
func newFleetObs(dir, worker, host string, pid int, clock obs.Clock, reg *obs.Registry) (*fleetObs, error) {
	if clock == nil {
		clock = obs.WallClock
	}
	log, err := OpenEventLog(dir, worker, clock)
	if err != nil {
		return nil, err
	}
	now := clock().UnixNano()
	return &fleetObs{
		clock: clock,
		reg:   reg,
		log:   log,
		rate:  obs.NewRolling([]float64{1}, fleetRateWindow, fleetRateSlices, clock),
		dir:   dir,
		status: WorkerStatus{
			Worker:          worker,
			Host:            host,
			PID:             pid,
			State:           WorkerRunning,
			StartedUnixNano: now,
			UpdatedUnixNano: now,
		},
		holdings: make(map[int]uint64),
		shards:   make(map[int]*ShardProgress),
	}, nil
}

// emit appends one fleet event, counting (never propagating) failures.
func (fo *fleetObs) emit(t EventType, shard int, epoch uint64, key, detail string) {
	if fo == nil {
		return
	}
	if err := fo.log.Emit(t, shard, epoch, key, detail); err != nil {
		fo.mu.Lock()
		fo.errs++
		fo.mu.Unlock()
	}
}

// beacon rewrites the worker's status beacon from the current state.
// The write happens under the mutex so an older snapshot can never
// overwrite a newer one.
func (fo *fleetObs) beacon() {
	if fo == nil {
		return
	}
	fo.mu.Lock()
	defer fo.mu.Unlock()
	fo.beaconLocked()
}

func (fo *fleetObs) beaconLocked() {
	s := fo.status
	s.UpdatedUnixNano = fo.clock().UnixNano()
	s.UnitsPerSec = fo.rate.Rate()
	s.Leases = nil
	for shard, epoch := range fo.holdings {
		s.Leases = append(s.Leases, LeaseHolding{Shard: shard, Epoch: epoch})
	}
	sort.Slice(s.Leases, func(i, j int) bool { return s.Leases[i].Shard < s.Leases[j].Shard })
	s.Shards = nil
	for _, sp := range fo.shards {
		s.Shards = append(s.Shards, *sp)
	}
	sort.Slice(s.Shards, func(i, j int) bool { return s.Shards[i].Shard < s.Shards[j].Shard })
	s.Registry = RegistrySnapshot(fo.reg)
	if err := WriteBeacon(fo.dir, s); err != nil {
		fo.errs++
	}
}

// join announces the worker to the fleet: a worker-join event and the
// first running beacon.
func (fo *fleetObs) join() {
	fo.emit(EventWorkerJoin, WorkerScope, 0, "", "")
	fo.beacon()
}

// claimed records an acquired lease: a lease-claim event (or
// orphan-takeover, naming the deposed owner when decodable) and a
// beacon listing the new holding.
func (fo *fleetObs) claimed(h *lease.Held) {
	if fo == nil {
		return
	}
	fo.mu.Lock()
	fo.holdings[h.Shard()] = h.Epoch()
	fo.mu.Unlock()
	t, detail := EventLeaseClaim, ""
	if h.TookOver() {
		t = EventOrphanTakeover
		if dep := h.Deposed(); dep.Token != "" {
			detail = dep.String()
		}
	}
	fo.emit(t, h.Shard(), h.Epoch(), "", detail)
	fo.beacon()
}

// shardView records the worker's view of one shard: at claim time how
// much was already journaled and how much it is about to run, and the
// in-process pool's final per-shard progress.
func (fo *fleetObs) shardView(sp ShardProgress) {
	if fo == nil {
		return
	}
	fo.mu.Lock()
	fo.shards[sp.Shard] = &sp
	fo.mu.Unlock()
}

// unitDone advances the worker's counters (and its shard view) by one
// journaled unit and refreshes the beacon.
func (fo *fleetObs) unitDone(shard int) {
	if fo == nil {
		return
	}
	fo.rate.Observe(1)
	fo.mu.Lock()
	fo.status.Units++
	if sp := fo.shards[shard]; sp != nil {
		sp.Done++
		if sp.Pending > 0 {
			sp.Pending--
		}
	}
	fo.beaconLocked()
	fo.mu.Unlock()
}

// renewFailure records one transient heartbeat-renewal failure.
func (fo *fleetObs) renewFailure(shard int, epoch uint64, err error) {
	if fo == nil {
		return
	}
	fo.mu.Lock()
	fo.status.RenewErrors++
	fo.mu.Unlock()
	fo.emit(EventLeaseRenewFailure, shard, epoch, "", err.Error())
}

// fenced records a lost lease: the holding disappears, the fence
// counter advances, and the fence lands in the event journal exactly
// once per lost lease.
func (fo *fleetObs) fenced(h *lease.Held) {
	if fo == nil {
		return
	}
	fo.mu.Lock()
	fo.status.Fenced++
	delete(fo.holdings, h.Shard())
	fo.mu.Unlock()
	fo.emit(EventLeaseFence, h.Shard(), h.Epoch(), "", "")
	fo.beacon()
}

// leaseDropped clears a released holding from the beacon.
func (fo *fleetObs) leaseDropped(shard int) {
	if fo == nil {
		return
	}
	fo.mu.Lock()
	delete(fo.holdings, shard)
	fo.mu.Unlock()
	fo.beacon()
}

// shardComplete records that the worker journaled the shard's last
// pending unit.
func (fo *fleetObs) shardComplete(h *lease.Held) {
	if fo == nil {
		return
	}
	fo.emit(EventShardComplete, h.Shard(), h.Epoch(), "", "")
}

// finish writes the worker's last beacon in the terminal state its run
// ended in — drained, stopped (idle or canceled) or failed with err —
// emits the matching lifecycle event and closes the event journal. This
// is what lets memtop tell a clean exit from a corpse: a crash leaves
// the beacon saying "running" with a heartbeat-old timestamp.
func (fo *fleetObs) finish(err error, drained bool, detail string) {
	if fo == nil {
		return
	}
	state, t := WorkerStopped, EventWorkerStop
	switch {
	case err == nil && drained:
		state, t = WorkerDrained, EventWorkerDrain
	case checkpoint.IsCanceled(err):
		detail = "canceled"
	case err != nil:
		state, detail = WorkerFailed, err.Error()
	}
	fo.mu.Lock()
	fo.status.State = state
	fo.beaconLocked()
	fo.mu.Unlock()
	fo.emit(t, WorkerScope, 0, "", detail)
	if err := fo.log.Close(); err != nil {
		fo.mu.Lock()
		fo.errs++
		fo.mu.Unlock()
	}
}

// errors reports how many beacon/event emissions failed (0 on nil).
func (fo *fleetObs) errors() int {
	if fo == nil {
		return 0
	}
	fo.mu.Lock()
	defer fo.mu.Unlock()
	return fo.errs
}
