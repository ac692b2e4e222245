package campaign

import (
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"time"

	"memcontention/internal/lease"
	"memcontention/internal/obs"
)

// This file is the fleet aggregator behind cmd/memtop: a strictly
// read-only view over one campaign directory that joins every
// observability surface the executors write — worker status beacons,
// the campaign event journal, the shard journals and the lease files —
// into one consistent report. It never creates, touches or locks
// anything, so an operator can point it at a live campaign without
// perturbing the workers it observes.

// FleetOptions parameterises one fleet collection.
type FleetOptions struct {
	// Dir is the campaign directory (required; its campaign.json is the
	// authority for the unit universe).
	Dir string
	// TTL and Grace judge lease staleness, exactly like the workers'
	// lease.Config (zero: the lease defaults, 15s TTL with TTL/2 grace;
	// negative Grace means none). Campaigns running with shortened
	// leases — the soak harness — must pass their own values or live
	// zombies misread as healthy.
	TTL   time.Duration
	Grace time.Duration
	// Stale bounds how old a "running" beacon may be before the worker
	// is presumed crashed (0: TTL+Grace, the same bound leases use).
	Stale time.Duration
	// Clock supplies "now" for every age computation (nil:
	// obs.WallClock).
	Clock obs.Clock
}

func (o FleetOptions) withDefaults() FleetOptions {
	lcfg := lease.Config{TTL: o.TTL, Grace: o.Grace}.WithDefaults()
	o.TTL = lcfg.TTL
	o.Grace = lcfg.Grace
	if o.Stale == 0 {
		o.Stale = o.TTL + o.Grace
	}
	if o.Clock == nil {
		o.Clock = obs.WallClock
	}
	return o
}

// FleetWorker is one worker's beacon joined with its liveness
// assessment.
type FleetWorker struct {
	WorkerStatus
	// AgeSeconds is collection time minus the beacon's last update.
	AgeSeconds float64 `json:"age_seconds"`
	// Stale marks a "running" beacon older than the staleness bound:
	// the worker crashed, hung or was SIGKILLed — it never wrote its
	// terminal beacon.
	Stale bool `json:"stale,omitempty"`
}

// FleetLease is one shard lease as seen at collection time.
type FleetLease struct {
	Shard int    `json:"shard"`
	State string `json:"state"` // live, stale or corrupt
	Owner string `json:"owner,omitempty"`
	Epoch uint64 `json:"epoch,omitempty"`
	// AgeSeconds is collection time minus the last heartbeat (0 for
	// corrupt leases).
	AgeSeconds float64 `json:"age_seconds"`
}

// EventCount is one event type's total in the campaign timeline.
type EventCount struct {
	Type  EventType `json:"type"`
	Count int       `json:"count"`
}

// FleetReport is the joined point-in-time view of a campaign fleet.
// Unit counts come from the shard journals (the ground truth the merge
// uses), never from beacons — a crashed worker's unreported units still
// count, and memtop's totals therefore always agree with what
// `memworker -merge` will produce.
type FleetReport struct {
	Dir               string          `json:"dir"`
	GeneratedUnixNano int64           `json:"generated_unix_nano"`
	Manifest          Manifest        `json:"manifest"`
	Units             int             `json:"units"`
	Done              int             `json:"done"`
	Pending           int             `json:"pending"`
	Quarantined       int             `json:"quarantined"`
	Shards            []ShardProgress `json:"shards"`
	Workers           []FleetWorker   `json:"workers,omitempty"`
	Leases            []FleetLease    `json:"leases,omitempty"`
	// UnitsPerSec sums the rolling throughput of the live running
	// workers; ETASeconds divides the pending count by it (0 when the
	// fleet is idle — no ETA is representable).
	UnitsPerSec float64      `json:"units_per_sec"`
	ETASeconds  float64      `json:"eta_seconds,omitempty"`
	Events      []EventCount `json:"events,omitempty"`
	// Timeline is the deterministic merged event journal, ordered by
	// (time, worker, seq).
	Timeline []Event `json:"timeline,omitempty"`
}

// CollectFleet builds the fleet report of the campaign in o.Dir. The
// campaign manifest must exist (a directory without one is not a
// campaign); every other surface degrades gracefully — no beacons, no
// events and no leases are all valid states of a finished or not yet
// started campaign.
func CollectFleet(o FleetOptions) (*FleetReport, error) {
	if o.Dir == "" {
		return nil, fmt.Errorf("campaign: fleet report needs a campaign directory")
	}
	o = o.withDefaults()
	man, err := LoadManifest(o.Dir)
	if err != nil {
		return nil, err
	}
	cfg := Config{Seed: man.Seed, Replications: man.Replications}.withDefaults()
	units, err := pipelineUnits(cfg, man.Platforms)
	if err != nil {
		return nil, err
	}
	done, err := journaledKeys(o.Dir)
	if err != nil {
		return nil, err
	}
	quar, err := ReadQuarantine(o.Dir)
	if err != nil {
		return nil, err
	}
	prog := tally(units, man.Shards, done, quar)

	now := o.Clock()
	rep := &FleetReport{
		Dir:               o.Dir,
		GeneratedUnixNano: now.UnixNano(),
		Manifest:          man,
		Units:             prog.Units,
		Done:              prog.Done,
		Pending:           prog.Units - prog.Done - prog.Quarantined,
		Quarantined:       prog.Quarantined,
		Shards:            prog.Shards,
	}

	beacons, err := ReadBeacons(o.Dir)
	if err != nil {
		return nil, err
	}
	for _, b := range beacons {
		age := now.Sub(time.Unix(0, b.UpdatedUnixNano))
		w := FleetWorker{
			WorkerStatus: b,
			AgeSeconds:   age.Seconds(),
			Stale:        b.State == WorkerRunning && age > o.Stale,
		}
		rep.Workers = append(rep.Workers, w)
		if b.State == WorkerRunning && !w.Stale {
			rep.UnitsPerSec += b.UnitsPerSec
		}
	}
	if rep.UnitsPerSec > 0 && rep.Pending > 0 {
		rep.ETASeconds = float64(rep.Pending) / rep.UnitsPerSec
	}

	infos, err := lease.Scan(filepath.Join(o.Dir, LeaseDir), o.TTL, o.Grace, o.Clock)
	if err != nil {
		return nil, err
	}
	for _, in := range infos {
		fl := FleetLease{Shard: in.Shard, State: string(in.State), AgeSeconds: in.Age.Seconds()}
		if in.State != lease.StateCorrupt {
			fl.Owner = in.Lease.Owner.String()
			fl.Epoch = in.Lease.Epoch
		} else {
			fl.AgeSeconds = 0
		}
		rep.Leases = append(rep.Leases, fl)
	}

	timeline, err := ReadEvents(o.Dir)
	if err != nil {
		return nil, err
	}
	rep.Timeline = timeline
	counts := make(map[EventType]int)
	for _, e := range timeline {
		counts[e.Type]++
	}
	for _, t := range eventTypeOrder {
		if counts[t] > 0 {
			rep.Events = append(rep.Events, EventCount{Type: t, Count: counts[t]})
		}
	}
	return rep, nil
}

// eventTypeOrder fixes the rendering order of event counts: lifecycle,
// lease machinery, completion — the order an operator reads a campaign's
// story in.
var eventTypeOrder = []EventType{
	EventWorkerJoin,
	EventWorkerDrain,
	EventWorkerStop,
	EventLeaseClaim,
	EventOrphanTakeover,
	EventLeaseRenewFailure,
	EventLeaseFence,
	EventShardComplete,
	EventUnitQuarantine,
}

// Publish refreshes the memcontention_fleet_* gauges from the report.
// The instrument set is fixed (every state label is always published,
// zero or not), so scrapes stay byte-deterministic across refreshes and
// absent states read as explicit zeros instead of gaps.
func (r *FleetReport) Publish(reg *obs.Registry) {
	if r == nil || reg == nil {
		return
	}
	workerStates := map[string]int{}
	stale := 0
	for _, w := range r.Workers {
		workerStates[w.State]++
		if w.Stale {
			stale++
		}
	}
	for _, state := range []string{WorkerRunning, WorkerDrained, WorkerStopped, WorkerFailed} {
		reg.Gauge("memcontention_fleet_workers",
			"Campaign workers by beacon state.", obs.L{"state": state}).Set(float64(workerStates[state]))
	}
	reg.Gauge("memcontention_fleet_workers_stale",
		"Workers whose running beacon is older than the staleness bound (presumed crashed).", nil).Set(float64(stale))

	leaseStates := map[string]int{}
	for _, l := range r.Leases {
		leaseStates[l.State]++
	}
	for _, state := range []string{string(lease.StateLive), string(lease.StateStale), string(lease.StateCorrupt)} {
		reg.Gauge("memcontention_fleet_leases",
			"Shard leases by liveness state.", obs.L{"state": state}).Set(float64(leaseStates[state]))
	}

	reg.Gauge("memcontention_fleet_units", "Experiment units in the campaign.", nil).Set(float64(r.Units))
	reg.Gauge("memcontention_fleet_units_done", "Units journaled somewhere in the shard set.", nil).Set(float64(r.Done))
	reg.Gauge("memcontention_fleet_units_pending", "Units not yet journaled or quarantined.", nil).Set(float64(r.Pending))
	reg.Gauge("memcontention_fleet_units_quarantined", "Units quarantined as poison.", nil).Set(float64(r.Quarantined))
	reg.Gauge("memcontention_fleet_units_per_sec", "Summed rolling throughput of the live workers.", nil).Set(r.UnitsPerSec)
	reg.Gauge("memcontention_fleet_eta_seconds", "Pending units over fleet throughput (0: no live throughput).", nil).Set(r.ETASeconds)

	for _, t := range eventTypeOrder {
		n := 0
		for _, ec := range r.Events {
			if ec.Type == t {
				n = ec.Count
			}
		}
		reg.Gauge("memcontention_fleet_events",
			"Campaign timeline events by type.", obs.L{"type": string(t)}).Set(float64(n))
	}
}

// WriteText renders the report as the memtop one-shot view. Everything
// derives from the report fields, so the bytes are deterministic given
// a deterministic report.
func (r *FleetReport) WriteText(w io.Writer) error {
	pct := 0.0
	if r.Units > 0 {
		pct = 100 * float64(r.Done) / float64(r.Units)
	}
	plats := strings.Join(r.Manifest.Platforms, ",")
	if _, err := fmt.Fprintf(w, "campaign: seed %d, platforms %s, %d shards\n",
		r.Manifest.Seed, plats, r.Manifest.Shards); err != nil {
		return err
	}
	fmt.Fprintf(w, "units: %d/%d done (%.1f%%), %d pending, %d quarantined\n",
		r.Done, r.Units, pct, r.Pending, r.Quarantined)
	switch {
	case r.ETASeconds > 0:
		fmt.Fprintf(w, "rate: %.2f units/s, ETA %.1fs\n", r.UnitsPerSec, r.ETASeconds)
	case r.Pending > 0:
		fmt.Fprintf(w, "rate: %.2f units/s, ETA unknown (no live throughput)\n", r.UnitsPerSec)
	default:
		fmt.Fprintf(w, "rate: %.2f units/s\n", r.UnitsPerSec)
	}
	fmt.Fprintf(w, "shards:\n")
	for _, s := range r.Shards {
		fmt.Fprintf(w, "  shard %d: %d done, %d pending, %d quarantined\n",
			s.Shard, s.Done, s.Pending, s.Quarantined)
	}
	fmt.Fprintf(w, "workers: %d\n", len(r.Workers))
	for _, wk := range r.Workers {
		state := wk.State
		if wk.Stale {
			state += " (stale)"
		}
		fmt.Fprintf(w, "  %s: %s, %d units, %.2f units/s, updated %.1fs ago",
			wk.Worker, state, wk.Units, wk.UnitsPerSec, wk.AgeSeconds)
		if len(wk.Leases) > 0 {
			parts := make([]string, len(wk.Leases))
			for i, h := range wk.Leases {
				parts[i] = fmt.Sprintf("%d@e%d", h.Shard, h.Epoch)
			}
			fmt.Fprintf(w, ", leases %s", strings.Join(parts, " "))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "leases: %d\n", len(r.Leases))
	for _, l := range r.Leases {
		if l.State == string(lease.StateCorrupt) {
			fmt.Fprintf(w, "  shard %d: corrupt\n", l.Shard)
			continue
		}
		fmt.Fprintf(w, "  shard %d: %s, epoch %d, owner %s, heartbeat %.1fs ago\n",
			l.Shard, l.State, l.Epoch, l.Owner, l.AgeSeconds)
	}
	total := 0
	for _, ec := range r.Events {
		total += ec.Count
	}
	fmt.Fprintf(w, "events: %d\n", total)
	for _, ec := range r.Events {
		fmt.Fprintf(w, "  %s: %d\n", ec.Type, ec.Count)
	}
	return nil
}

// WriteTimeline renders the merged event journal, one event per line in
// (time, worker, seq) order — the causal story of the campaign.
func (r *FleetReport) WriteTimeline(w io.Writer) error {
	for _, e := range r.Timeline {
		ts := time.Unix(0, e.TimeUnixNano).UTC().Format("15:04:05.000")
		line := fmt.Sprintf("%s %-12s %s", ts, e.Worker, e.Type)
		if e.Shard != WorkerScope {
			line += fmt.Sprintf(" shard=%d", e.Shard)
		}
		if e.Epoch != 0 {
			line += fmt.Sprintf(" epoch=%d", e.Epoch)
		}
		if e.Key != "" {
			line += fmt.Sprintf(" key=%s", e.Key)
		}
		if e.Detail != "" {
			line += fmt.Sprintf(" (%s)", e.Detail)
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}
