package engine

import (
	"fmt"
	"math"
	"sort"

	"memcontention/internal/memsys"
	"memcontention/internal/obs"
	"memcontention/internal/units"
)

// FlowObserver receives flow lifecycle notifications, in simulated-time
// order. Implementations must not mutate the flow manager. The machine
// argument is the flow manager's machine id (SetMachine): flow ids are
// only unique per manager, so observers shared across a cluster key
// flows by (machine, id).
type FlowObserver interface {
	// FlowStarted fires when a transfer begins.
	FlowStarted(machine, id int, stream memsys.Stream, bytes float64, at float64)
	// FlowFinished fires when a transfer drains.
	FlowFinished(machine, id int, at float64, avgRate float64)
	// RatesResolved fires after every re-solve with the rates actually
	// applied to the flows — that is, after any RateLimiter has rescaled
	// the solver's grants — keyed by flow id in GB/s.
	RatesResolved(machine int, at float64, rates map[int]float64)
}

// Flows manages fluid data transfers over a memory system. All active
// transfers progress simultaneously at the rates the memsys solver grants
// them; rates are re-solved whenever a transfer starts or completes.
type Flows struct {
	sim    *Sim
	sys    *memsys.System
	active map[int]*flow
	nextID int
	// pending is the scheduled "next completion" event.
	pending *Timer
	// observer, when set, is notified of flow lifecycle events.
	observer FlowObserver
	// machine is the id reported to the observer and span recorder
	// (SetMachine; 0 for single-machine simulations).
	machine int
	// spans, when set, receives one causal span per flow, attributed
	// with the stream's kind, node and traversed links. Nil costs one
	// comparison per flow.
	spans obs.SpanRecorder
	// limiter, when set, caps each stream's solved rate (fault
	// injection: NIC stalls, core slowdowns). Nil costs nothing.
	limiter RateLimiter
	// m holds the optional instruments; nil instruments record nothing.
	m flowInstruments
}

// SetObserver installs a flow observer (nil removes it).
func (f *Flows) SetObserver(o FlowObserver) { f.observer = o }

// SetMachine sets the machine id reported with every observer and span
// notification. simnet.NewMachine calls it; standalone flow managers
// default to machine 0.
func (f *Flows) SetMachine(id int) { f.machine = id }

// Machine reports the flow manager's machine id.
func (f *Flows) Machine() int { return f.machine }

// SetSpanRecorder installs a causal span recorder: every flow started
// afterwards opens a "flow" span on begin and closes it on completion
// (nil removes it, leaving in-flight spans unclosed).
func (f *Flows) SetSpanRecorder(sr obs.SpanRecorder) { f.spans = sr }

// RateLimiter rescales a stream's solved rate: it receives the stream and
// the solver-granted rate (GB/s) and returns the rate actually applied
// (0 freezes the stream). It must be deterministic in (stream, rate, sim
// time) for the simulation to stay reproducible.
type RateLimiter func(st memsys.Stream, rate float64) float64

// SetRateLimiter installs a rate limiter (nil removes it, restoring the
// solver-granted rates). Installing or changing a limiter only takes
// effect at the next re-solve; call Refresh to apply it mid-flight.
func (f *Flows) SetRateLimiter(l RateLimiter) { f.limiter = l }

// Refresh integrates all active flows to the current time and re-solves
// their rates. Fault injection calls it when conditions change mid-flight
// (a stall begins or ends, a slowdown toggles) so progress before the
// change is banked at the old rates and the remainder runs at the new
// ones. With no active flows it is a no-op.
func (f *Flows) Refresh() {
	if len(f.active) == 0 {
		return
	}
	f.integrate()
	f.resolve()
}

// flowInstruments are the flow manager's telemetry hooks.
type flowInstruments struct {
	started       *obs.Counter
	finished      *obs.Counter
	rateResolves  *obs.Counter
	solverStreams *obs.Counter
	activeFlows   *obs.Gauge
	avgRate       *obs.Histogram
}

// SetRegistry registers the flow manager's instruments in r and starts
// recording into them. A nil registry detaches. Several flow managers may
// share one registry (the series aggregate across machines).
func (f *Flows) SetRegistry(r *obs.Registry) {
	f.m = flowInstruments{
		started:       r.Counter("memcontention_engine_flows_started_total", "Transfers started by the flow manager.", nil),
		finished:      r.Counter("memcontention_engine_flows_finished_total", "Transfers drained to completion.", nil),
		rateResolves:  r.Counter("memcontention_engine_rate_resolves_total", "Steady-state rate re-solves.", nil),
		solverStreams: r.Counter("memcontention_engine_solver_streams_total", "Streams passed to the memory-system solver, summed over re-solves.", nil),
		activeFlows:   r.Gauge("memcontention_engine_active_flows", "Concurrently active transfers.", nil),
		avgRate:       r.Histogram("memcontention_engine_flow_avg_rate_gbps", "Average bandwidth of finished flows.", obs.BandwidthBuckets(), nil),
	}
}

// flow is one in-progress transfer.
type flow struct {
	stream    memsys.Stream
	remaining float64 // bytes
	rate      float64 // GB/s, last solved
	started   float64 // sim time
	touched   float64 // sim time of the last progress integration
	done      *Signal
	finished  bool
	completed float64    // sim time at completion
	moved     float64    // bytes completed so far (for AvgRate)
	span      obs.SpanID // causal span, 0 when spans are off
}

// Handle identifies an active or completed transfer.
type Handle struct {
	fl *flow
	f  *Flows
	id int
}

// NewFlows returns a flow manager bound to sim and sys.
func NewFlows(sim *Sim, sys *memsys.System) *Flows {
	return &Flows{sim: sim, sys: sys, active: make(map[int]*flow)}
}

// System returns the underlying memory system.
func (f *Flows) System() *memsys.System { return f.sys }

// Start begins a transfer of size bytes described by the stream template
// (its ID field is overwritten with a fresh unique ID). It may be called
// from process or scheduler context. It panics on solver errors, which can
// only arise from malformed streams — a programming error.
func (f *Flows) Start(st memsys.Stream, size units.ByteSize) *Handle {
	return f.StartWithParent(st, size, 0)
}

// StartWithParent begins a transfer like Start, additionally parenting
// the flow's causal span under parent (0 = root) when a span recorder is
// attached. simnet parents the two DMA flows of a message under its
// transfer span; MPI parents compute flows under the compute phase.
func (f *Flows) StartWithParent(st memsys.Stream, size units.ByteSize, parent obs.SpanID) *Handle {
	f.nextID++
	id := f.nextID
	st.ID = id
	fl := &flow{
		stream:    st,
		remaining: float64(size.Bytes()),
		started:   f.sim.Now(),
		done:      f.sim.NewSignal(),
	}
	f.integrate()
	f.active[id] = fl
	f.m.started.Inc()
	f.m.activeFlows.Set(float64(len(f.active)))
	if f.observer != nil {
		f.observer.FlowStarted(f.machine, id, st, fl.remaining, fl.started)
	}
	if f.spans != nil {
		fl.span = f.spans.BeginSpan(parent, fmt.Sprintf("flow #%d", id), "flow", fl.started, obs.SpanAttrs{
			Machine: f.machine,
			Rank:    -1,
			Flow:    id,
			Stream:  st.Kind.String(),
			Node:    int(st.Node),
			Links:   f.sys.Links(st),
		})
	}
	f.resolve()
	return &Handle{fl: fl, f: f, id: id}
}

// TransferAndWait starts a transfer and parks the calling process until it
// completes. It returns the completion time and the average rate.
func (f *Flows) TransferAndWait(p *Proc, st memsys.Stream, size units.ByteSize) (at float64, avg units.Bandwidth) {
	h := f.Start(st, size)
	h.Wait(p)
	return h.CompletedAt(), h.AvgRate()
}

// Wait parks the calling process until the transfer completes.
func (h *Handle) Wait(p *Proc) {
	for !h.fl.finished {
		if p.waitReason == "" && p.waitLazy == nil {
			p.SetWaitReason("transfer-wait")
		}
		h.fl.done.Wait(p)
	}
}

// Done reports whether the transfer has completed.
func (h *Handle) Done() bool { return h.fl.finished }

// CompletedAt reports the completion time (0 when not finished).
func (h *Handle) CompletedAt() float64 {
	if !h.fl.finished {
		return 0
	}
	return h.fl.completed
}

// AvgRate reports the transfer's average bandwidth over its lifetime
// (0 when not finished or instantaneous).
func (h *Handle) AvgRate() units.Bandwidth {
	if !h.fl.finished {
		return 0
	}
	dur := h.fl.completed - h.fl.started
	if dur <= 0 {
		return 0
	}
	return units.Bandwidth(h.fl.moved / units.BytesPerGB / dur)
}

// CurrentRate reports the instantaneous solved rate of an active transfer.
func (h *Handle) CurrentRate() units.Bandwidth { return units.Bandwidth(h.fl.rate) }

// integrate advances every active flow to the current time at its last
// solved rate.
func (f *Flows) integrate() {
	now := f.sim.Now()
	for _, fl := range f.active {
		elapsed := now - fl.lastTouch()
		if elapsed <= 0 {
			continue
		}
		movedBytes := fl.rate * units.BytesPerGB * elapsed
		if movedBytes > fl.remaining {
			movedBytes = fl.remaining
		}
		fl.remaining -= movedBytes
		fl.moved += movedBytes
		fl.touched = now
	}
}

// lastTouch reports when the flow's remaining count was last updated.
func (fl *flow) lastTouch() float64 {
	if fl.touched > fl.started {
		return fl.touched
	}
	return fl.started
}

// resolve re-solves rates for the active set and schedules the next
// completion event.
func (f *Flows) resolve() {
	if f.pending != nil {
		f.pending.Cancel()
		f.pending = nil
	}
	if len(f.active) == 0 {
		return
	}
	ids := make([]int, 0, len(f.active))
	for id := range f.active {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	// A flow's stream carries its flow ID, so streams built in ids order
	// reach the solver already ID-ordered and are solved in place.
	streams := make([]memsys.Stream, len(ids))
	for i, id := range ids {
		streams[i] = f.active[id].stream
	}
	alloc, err := f.sys.Solve(streams)
	if err != nil {
		panic(fmt.Sprintf("engine: flow solve failed: %v", err))
	}
	f.m.rateResolves.Inc()
	f.m.solverStreams.Add(float64(len(streams)))
	nextAt := math.Inf(1)
	now := f.sim.Now()
	// applied collects the rates the flows actually run at — after the
	// limiter, which can differ from the solver's grants under fault
	// injection. Only built when someone is listening.
	var applied map[int]float64
	if f.observer != nil {
		applied = make(map[int]float64, len(ids))
	}
	for _, id := range ids {
		fl := f.active[id]
		fl.rate = alloc.Rate(id)
		if f.limiter != nil {
			fl.rate = f.limiter(fl.stream, fl.rate)
			if fl.rate < 0 || math.IsNaN(fl.rate) {
				fl.rate = 0
			}
		}
		if applied != nil {
			applied[id] = fl.rate
		}
		if fl.rate > 0 {
			eta := now + fl.remaining/(fl.rate*units.BytesPerGB)
			if eta < nextAt {
				nextAt = eta
			}
		}
	}
	if f.observer != nil {
		f.observer.RatesResolved(f.machine, now, applied)
	}
	if math.IsInf(nextAt, 1) {
		// No flow can progress; leave them parked. If nothing else
		// wakes the simulation, Run reports a deadlock.
		return
	}
	f.pending = f.sim.At(nextAt, f.onCompletion)
}

// onCompletion fires when the earliest flow(s) finish: it integrates
// progress, completes every drained flow, and re-solves the rest.
func (f *Flows) onCompletion() {
	f.pending = nil
	f.integrate()
	ids := make([]int, 0, len(f.active))
	for id := range f.active {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	const eps = 1 // byte: guards float roundoff
	for _, id := range ids {
		fl := f.active[id]
		if fl.remaining <= eps {
			fl.moved += fl.remaining
			fl.remaining = 0
			fl.finished = true
			fl.completed = f.sim.Now()
			delete(f.active, id)
			avg := 0.0
			if d := fl.completed - fl.started; d > 0 {
				avg = fl.moved / units.BytesPerGB / d
			}
			f.m.finished.Inc()
			f.m.activeFlows.Set(float64(len(f.active)))
			f.m.avgRate.Observe(avg)
			if f.observer != nil {
				f.observer.FlowFinished(f.machine, id, fl.completed, avg)
			}
			if f.spans != nil && fl.span != 0 {
				f.spans.EndSpan(fl.span, fl.completed)
			}
			fl.done.Fire()
		}
	}
	f.resolve()
}

// ActiveCount reports the number of in-progress transfers.
func (f *Flows) ActiveCount() int { return len(f.active) }
