// Package simnet models the network side of the testbed: machines with
// their memory systems, the fabric linking them (InfiniBand / Omni-Path
// class), and message delivery as DMA streams through the receiving (and
// sending) machine's memory system.
//
// A message transfer is two coupled fluid flows: the sender NIC reads the
// data from the sender's memory, the receiver NIC stores it into the
// receiver's memory. The wire rate bounds both; the transfer completes
// when both memory paths have drained, which is the fluid equivalent of a
// rendezvous pipeline. The paper measures receive-side bandwidth (§IV-A1);
// with an idle sender the receive path is the bottleneck, exactly as on
// the real testbed.
package simnet

import (
	"errors"
	"fmt"
	"math"

	"memcontention/internal/engine"
	"memcontention/internal/hwloc"
	"memcontention/internal/memsys"
	"memcontention/internal/obs"
	"memcontention/internal/topology"
	"memcontention/internal/units"
)

// ErrMessageDropped reports a message lost in flight by fault injection.
// The MPI layer retries dropped messages when resilience is configured.
var ErrMessageDropped = errors.New("simnet: message dropped by fault injection")

// DownError reports a transfer endpoint that has crashed.
type DownError struct {
	// Machine is the crashed machine's id.
	Machine int
	// Since is the simulated time of the crash.
	Since float64
}

func (e *DownError) Error() string {
	return fmt.Sprintf("simnet: machine %d is down (crashed at t=%.6fs)", e.Machine, e.Since)
}

// TransferFault is the fault layer's verdict on one message.
type TransferFault struct {
	// Drop loses the message: no data moves and the delivery callback
	// reports ErrMessageDropped once the (faulty) latency has elapsed.
	Drop bool
	// ExtraLatency is added one-way latency in seconds (jitter included).
	ExtraLatency float64
	// WireFactor scales the link's wire rate for this message; 0 or 1
	// mean nominal.
	WireFactor float64
}

// FaultModel lets a fault injector perturb the fabric. Implementations
// must be deterministic in their own seeded state and the arguments so
// that a faulty simulation stays bit-for-bit reproducible.
type FaultModel interface {
	// MachineDown reports whether machine id is crashed at time at, and
	// since when.
	MachineDown(id int, at float64) (down bool, since float64)
	// TransferFault is consulted once per message at injection time.
	// xfer is the fabric's monotonically increasing transfer number.
	TransferFault(src, dst, xfer int, size, at float64) TransferFault
}

// Machine is one cluster node: a platform, its memory system and the flow
// manager simulating it.
type Machine struct {
	ID    int
	Sys   *memsys.System
	Flows *engine.Flows
	Topo  *hwloc.Topology
}

// NewMachine assembles a machine inside the simulation.
func NewMachine(sim *engine.Sim, id int, plat *topology.Platform, prof *memsys.Profile) (*Machine, error) {
	sys, err := memsys.New(plat, prof)
	if err != nil {
		return nil, fmt.Errorf("simnet: machine %d: %w", id, err)
	}
	topo, err := hwloc.FromPlatform(plat)
	if err != nil {
		return nil, fmt.Errorf("simnet: machine %d: %w", id, err)
	}
	flows := engine.NewFlows(sim, sys)
	flows.SetMachine(id)
	return &Machine{ID: id, Sys: sys, Flows: flows, Topo: topo}, nil
}

// Fabric is the interconnect between machines.
type Fabric struct {
	sim *engine.Sim
	// WireRate is the link speed in GB/s (EDR ≈ 12.1, HDR ≈ 23.5,
	// Omni-Path ≈ 11.9).
	WireRate float64
	// Latency is the one-way base latency in seconds.
	Latency float64

	machines map[int]*Machine
	nextXfer int
	// faults, when set, perturbs deliveries. Nil costs one comparison
	// per transfer.
	faults FaultModel
	// spans, when set, wraps every message in a "transfer" causal span
	// parented under Transfer.Parent (the MPI operation). Nil costs one
	// comparison per transfer.
	spans obs.SpanRecorder
}

// SetFaults installs a fault model on the fabric (nil removes it).
func (f *Fabric) SetFaults(fm FaultModel) { f.faults = fm }

// SetSpanRecorder installs a causal span recorder on the fabric (nil
// removes it).
func (f *Fabric) SetSpanRecorder(sr obs.SpanRecorder) { f.spans = sr }

// MachineDown reports whether the fault layer considers machine id crashed
// at the current simulated time (always false without a fault model).
func (f *Fabric) MachineDown(id int) (down bool, since float64) {
	if f.faults == nil {
		return false, 0
	}
	return f.faults.MachineDown(id, f.sim.Now())
}

// NewFabric creates a fabric. Rate must be positive; latency non-negative.
func NewFabric(sim *engine.Sim, wireRate, latency float64) (*Fabric, error) {
	if wireRate <= 0 || math.IsNaN(wireRate) {
		return nil, fmt.Errorf("simnet: wire rate must be positive, got %v", wireRate)
	}
	if latency < 0 || math.IsNaN(latency) {
		return nil, fmt.Errorf("simnet: latency must be non-negative, got %v", latency)
	}
	return &Fabric{sim: sim, WireRate: wireRate, Latency: latency, machines: make(map[int]*Machine)}, nil
}

// Attach registers a machine on the fabric.
func (f *Fabric) Attach(m *Machine) error {
	if _, dup := f.machines[m.ID]; dup {
		return fmt.Errorf("simnet: duplicate machine id %d", m.ID)
	}
	f.machines[m.ID] = m
	return nil
}

// Transfer describes one message movement between machines.
type Transfer struct {
	Src, Dst         *Machine
	SrcNode, DstNode topology.NodeID
	Size             units.ByteSize
	// Parent is the causal span this transfer belongs to (the MPI
	// operation that posted it; 0 for a root transfer). Only read when
	// the fabric has a span recorder.
	Parent obs.SpanID
}

// Result reports a completed transfer.
type Result struct {
	// Start and End are simulated times (seconds).
	Start, End float64
	// AvgRate is the end-to-end average bandwidth including latency.
	AvgRate units.Bandwidth
}

// DeliverAsync performs a transfer and invokes done (in scheduler context)
// on completion. Errors are reported through done: a crashed endpoint
// yields a *DownError, a message lost by fault injection yields
// ErrMessageDropped (after the latency, when the loss would be noticed).
func (f *Fabric) DeliverAsync(t Transfer, done func(Result, error)) {
	if err := f.check(t); err != nil {
		f.sim.After(0, func() { done(Result{}, err) })
		return
	}
	start := f.sim.Now()
	f.nextXfer++
	// The transfer span covers latency, faults and both DMA drains; fin
	// closes it on every completion path, successful or not. span and fin
	// are single-assignment so the closures below capture them by value —
	// reassigning a captured variable would heap-allocate it on the
	// span-free hot path.
	span, fin := f.beginTransferSpan(t, start, done)
	latency, wireCap := f.Latency, f.WireRate
	if f.faults != nil {
		for _, m := range []*Machine{t.Src, t.Dst} {
			if down, since := f.faults.MachineDown(m.ID, start); down {
				derr := &DownError{Machine: m.ID, Since: since}
				f.sim.After(0, func() { fin(Result{Start: start}, derr) })
				return
			}
		}
		fault := f.faults.TransferFault(t.Src.ID, t.Dst.ID, f.nextXfer, float64(t.Size.Bytes()), start)
		if fault.ExtraLatency > 0 {
			latency += fault.ExtraLatency
		}
		if fault.WireFactor > 0 {
			wireCap *= fault.WireFactor
		}
		if fault.Drop {
			f.sim.After(latency, func() { fin(Result{Start: start}, ErrMessageDropped) })
			return
		}
	}
	f.sim.After(latency, func() {
		// The wire bounds both DMA paths; the memory systems may
		// grant less.
		wire := wireCap
		remaining := 2
		finish := func() {
			remaining--
			if remaining > 0 {
				return
			}
			end := f.sim.Now()
			res := Result{Start: start, End: end}
			if end > start {
				res.AvgRate = units.RateFor(t.Size, units.Seconds(end-start))
			}
			fin(res, nil)
		}
		// Sender-side read stream (KindComm on the sender's system).
		srcDemand := math.Min(wire, t.Src.Sys.CommDemand(t.SrcNode))
		srcH := t.Src.Flows.StartWithParent(memsys.Stream{
			Kind:   memsys.KindComm,
			Node:   t.SrcNode,
			Demand: srcDemand,
		}, t.Size, span)
		// Receiver-side write stream.
		dstDemand := math.Min(wire, t.Dst.Sys.CommDemand(t.DstNode))
		dstH := t.Dst.Flows.StartWithParent(memsys.Stream{
			Kind:   memsys.KindComm,
			Node:   t.DstNode,
			Demand: dstDemand,
		}, t.Size, span)
		waitHandle(f.sim, srcH, finish)
		waitHandle(f.sim, dstH, finish)
	})
}

// beginTransferSpan opens the causal span of one transfer and returns it
// with the completion callback that closes it; with spans off it returns
// done unchanged at zero cost.
func (f *Fabric) beginTransferSpan(t Transfer, start float64, done func(Result, error)) (obs.SpanID, func(Result, error)) {
	if f.spans == nil {
		return 0, done
	}
	span := f.spans.BeginSpan(t.Parent,
		fmt.Sprintf("xfer m%d:n%d→m%d:n%d", t.Src.ID, t.SrcNode, t.Dst.ID, t.DstNode),
		"transfer", start, obs.SpanAttrs{Machine: t.Src.ID, Rank: -1, Node: -1, Stream: "comm"})
	return span, func(r Result, err error) {
		f.spans.EndSpan(span, f.sim.Now())
		done(r, err)
	}
}

// waitHandle invokes fn once the flow completes, via a watcher process.
func waitHandle(sim *engine.Sim, h *engine.Handle, fn func()) {
	sim.Spawn("simnet-wait", func(p *engine.Proc) {
		h.Wait(p)
		fn()
	})
}

func (f *Fabric) check(t Transfer) error {
	switch {
	case t.Src == nil || t.Dst == nil:
		return fmt.Errorf("simnet: transfer with nil machine")
	case t.Src == t.Dst:
		return fmt.Errorf("simnet: loopback transfer on machine %d (use memcpy, not the fabric)", t.Src.ID)
	case t.Size <= 0:
		return fmt.Errorf("simnet: non-positive transfer size %d", t.Size)
	case int(t.SrcNode) < 0 || int(t.SrcNode) >= t.Src.Sys.Platform().NNodes():
		return fmt.Errorf("simnet: source node %d out of range", t.SrcNode)
	case int(t.DstNode) < 0 || int(t.DstNode) >= t.Dst.Sys.Platform().NNodes():
		return fmt.Errorf("simnet: destination node %d out of range", t.DstNode)
	}
	if _, ok := f.machines[t.Src.ID]; !ok {
		return fmt.Errorf("simnet: source machine %d not attached", t.Src.ID)
	}
	if _, ok := f.machines[t.Dst.ID]; !ok {
		return fmt.Errorf("simnet: destination machine %d not attached", t.Dst.ID)
	}
	return nil
}

// WireRateFor returns a plausible wire rate (GB/s) for a network
// technology, used when assembling clusters from Table I platforms.
func WireRateFor(tech topology.NetworkTech, pcieGen int) float64 {
	switch tech {
	case topology.OmniPath:
		return 11.9
	case topology.InfiniBand:
		if pcieGen >= 4 {
			return 23.5 // HDR
		}
		return 12.1 // EDR
	default:
		return 12.1
	}
}
