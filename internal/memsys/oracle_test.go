package memsys

// The map-based solver, kept verbatim (identifiers prefixed with
// "oracle") as the differential oracle of Solve: Solve must grant every
// stream exactly the bits this implementation grants. It shares the
// per-node arithmetic helpers (commFactor, pickEnv, commReserve,
// crossesLink) with Solve; what differs is the bookkeeping: maps keyed by
// stream ID and node, sorted copies, and index lists.

import (
	"fmt"
	"math"
	"sort"

	"memcontention/internal/topology"
)

// oracleAllocation is the solver's result: the bandwidth granted to each stream.
type oracleAllocation struct {
	// Rates maps stream ID to granted bandwidth (GB/s).
	Rates map[int]float64
	// ComputeTotal and CommTotal aggregate the granted bandwidth per
	// kind; Total is their sum.
	ComputeTotal float64
	CommTotal    float64
	Total        float64
}

// Rate returns the granted bandwidth of a stream (0 for unknown IDs).
func (a *oracleAllocation) Rate(id int) float64 { return a.Rates[id] }

// oracleSolve assigns a bandwidth to every stream according to the arbitration
// policy described in the package comment. It is deterministic: the result
// depends only on the stream set (IDs included), never on slice order.
func (s *System) oracleSolve(streams []Stream) (*oracleAllocation, error) {
	if err := s.oracleCheckStreams(streams); err != nil {
		return nil, err
	}
	// Work on an ID-sorted copy so the solve is order-independent.
	ordered := append([]Stream(nil), streams...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].ID < ordered[j].ID })

	rates := make(map[int]float64, len(ordered))
	groups := s.oracleGroupByNode(ordered)

	for _, g := range groups {
		s.oracleSolveNode(ordered, g, rates)
	}
	s.oracleApplyMeshPressure(ordered, rates)
	s.oracleApplyLinkCap(ordered, rates)
	s.oracleApplyPCIeCap(ordered, rates)

	alloc := &oracleAllocation{Rates: rates}
	for _, st := range ordered {
		r := rates[st.ID]
		alloc.Total += r
		if st.Kind == KindCompute {
			alloc.ComputeTotal += r
		} else {
			alloc.CommTotal += r
		}
	}
	return alloc, nil
}

func (s *System) oracleCheckStreams(streams []Stream) error {
	seen := make(map[int]bool, len(streams))
	for _, st := range streams {
		if seen[st.ID] {
			return fmt.Errorf("memsys: duplicate stream id %d", st.ID)
		}
		seen[st.ID] = true
		if int(st.Node) < 0 || int(st.Node) >= s.plat.NNodes() {
			return fmt.Errorf("memsys: stream %d targets node %d out of range", st.ID, st.Node)
		}
		switch st.Kind {
		case KindCompute:
			if int(st.Core) < 0 || int(st.Core) >= s.plat.NCores() {
				return fmt.Errorf("memsys: compute stream %d issued by core %d out of range", st.ID, st.Core)
			}
			if st.Demand < 0 {
				return fmt.Errorf("memsys: stream %d has negative demand", st.ID)
			}
		case KindComm:
			if st.Demand < 0 {
				return fmt.Errorf("memsys: stream %d has negative demand", st.ID)
			}
		default:
			return fmt.Errorf("memsys: stream %d has unknown kind %d", st.ID, int(st.Kind))
		}
	}
	return nil
}

func (s *System) oracleGroupByNode(ordered []Stream) []*nodeGroup {
	byNode := make(map[topology.NodeID]*nodeGroup)
	for i, st := range ordered {
		g := byNode[st.Node]
		if g == nil {
			g = &nodeGroup{node: st.Node}
			byNode[st.Node] = g
		}
		if st.Kind == KindCompute {
			g.compute = append(g.compute, i)
			if s.plat.CrossesLink(s.plat.Cores[st.Core].Socket, st.Node) {
				g.nRemote++
			} else {
				g.nLocal++
			}
		} else {
			g.comm = append(g.comm, i)
		}
	}
	groups := make([]*nodeGroup, 0, len(byNode))
	for _, g := range byNode {
		groups = append(groups, g)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].node < groups[j].node })
	return groups
}

func (s *System) oracleSolveNode(ordered []Stream, g *nodeGroup, rates map[int]float64) {
	q := s.prof.Quirks
	n := g.nLocal + g.nRemote

	// Aggregate compute demand against this controller.
	var compDemand float64
	for _, i := range g.compute {
		d := ordered[i].Demand
		if d == 0 {
			d = s.ComputeDemand(ordered[i].Core, g.node)
		}
		compDemand += d
	}
	capCore := pickEnv(s.prof.Caps.CoreLocal, s.prof.Caps.CoreRemote, g).at(float64(n))
	compAgg := softmin(compDemand, capCore, q.SoftSaturationGB)

	// Aggregate comm demand (nominal rate, locality- and quirk-adjusted).
	var commDemand float64
	for _, i := range g.comm {
		d := ordered[i].Demand
		if d == 0 {
			d = s.CommDemand(g.node)
		}
		commDemand += d * s.commFactor(ordered, g.node)
	}

	commAgg := 0.0
	if len(g.comm) > 0 {
		mixEnv := pickEnv(s.prof.Caps.MixLocal, s.prof.Caps.MixRemote, g)
		capMix := mixEnv.at(float64(n))
		perCore := 0.0
		if n > 0 {
			perCore = compDemand / float64(n)
		}
		// The NIC's share: its nominal demand, gradually decayed once
		// the system is past the saturation onset, never below the
		// guaranteed floor, and physically bounded by the controller.
		commAgg = math.Min(s.commReserve(mixEnv, n, perCore, commDemand, g.nRemote == 0), capMix)
		// The cores get what the controller has left.
		compAgg = math.Min(compAgg, math.Max(0, capMix-commAgg))
	}

	oracleDistribute(ordered, g.compute, compAgg, rates, func(st Stream) float64 {
		if st.Demand != 0 {
			return st.Demand
		}
		return s.ComputeDemand(st.Core, g.node)
	})
	oracleDistribute(ordered, g.comm, commAgg, rates, func(st Stream) float64 {
		d := st.Demand
		if d == 0 {
			d = s.CommDemand(g.node)
		}
		return d * s.commFactor(ordered, g.node)
	})
}

// oracleDistribute splits an aggregate grant among streams proportionally to
// their demands, never exceeding any stream's demand. (With equal demands
// this is an even split; with unequal demands the proportional split can
// leave slack only when the aggregate exceeds total demand, in which case
// every stream is granted its full demand.)
func oracleDistribute(ordered []Stream, idx []int, agg float64, rates map[int]float64, demand func(Stream) float64) {
	if len(idx) == 0 {
		return
	}
	total := 0.0
	for _, i := range idx {
		total += demand(ordered[i])
	}
	if total <= 0 {
		for _, i := range idx {
			rates[ordered[i].ID] = 0
		}
		return
	}
	scale := agg / total
	if scale > 1 {
		scale = 1
	}
	for _, i := range idx {
		rates[ordered[i].ID] = demand(ordered[i]) * scale
	}
}

// oracleApplyMeshPressure models contention between NIC DMA and core traffic
// that do NOT share a memory controller. On real machines the two stream
// families still meet in the socket mesh / caching agents, so
// communications are throttled by concurrent computations in (almost)
// every placement, not only same-node ones — this is why the paper's
// equation (6) applies the *local contended* model to cross placements and
// still matches measurements. Computations, in contrast, are unaffected
// (the paper's "lessons learned": only same-node placements hurt
// computations).
//
// The mesh grants cross-node comm streams what a local controller would
// have left over: MixLocal(n) minus the bandwidth actually granted to the
// n computing cores, never below the guaranteed NIC floor. Platforms with
// CommFloorFrac = 1 (occigen) are therefore exempt, matching the paper's
// observation that occigen never throttles communications.
func (s *System) oracleApplyMeshPressure(ordered []Stream, rates map[int]float64) {
	computeNodes := make(map[topology.NodeID]bool)
	// Mesh occupancy is driven by the requests the cores *issue*, not
	// by the bandwidth they are granted: a core streaming to a remote
	// node is latency-bound and holds as many mesh slots as a local
	// stream would, so its occupancy is counted at its local-equivalent
	// demand.
	occDemand := 0.0
	nCompute := 0
	allLocalClass := true
	for _, st := range ordered {
		if st.Kind != KindCompute {
			continue
		}
		computeNodes[st.Node] = true
		d := st.Demand
		if d == 0 {
			d = s.ComputeDemand(st.Core, st.Node)
		}
		if s.plat.CrossesLink(s.plat.Cores[st.Core].Socket, st.Node) {
			allLocalClass = false
			d *= s.prof.PerCoreLocal / s.prof.PerCoreRemote
		}
		occDemand += d
		nCompute++
	}
	if nCompute == 0 {
		return
	}
	var cross []int
	curSum, floorSum := 0.0, 0.0
	for i, st := range ordered {
		if st.Kind != KindComm || computeNodes[st.Node] {
			continue
		}
		cross = append(cross, i)
		curSum += rates[st.ID]
		d := st.Demand
		if d == 0 {
			d = s.CommDemand(st.Node)
		}
		floorSum += s.prof.CommFloorFrac * d * s.commFactor(ordered, st.Node)
	}
	if len(cross) == 0 || curSum <= 0 {
		return
	}
	n := float64(nCompute)
	occupancy := math.Min(occDemand, s.prof.Caps.CoreLocal.At(n))
	capacityLeft := s.prof.Caps.MixLocal.At(n) - occupancy
	env := blendEnv{local: s.prof.Caps.MixLocal, nLocal: 1}
	reserve := s.commReserve(env, nCompute, occDemand/n, curSum, allLocalClass)
	target := math.Min(curSum, math.Min(capacityLeft, reserve))
	target = math.Max(target, floorSum)
	if target >= curSum {
		return
	}
	if target < 0 {
		target = 0
	}
	scale := target / curSum
	for _, i := range cross {
		rates[ordered[i].ID] *= scale
	}
}

// oracleApplyLinkCap enforces the inter-socket link capacity: every stream whose
// path crosses sockets shares LinkCap; excess is removed proportionally.
func (s *System) oracleApplyLinkCap(ordered []Stream, rates map[int]float64) {
	var crossing []int
	totalCross := 0.0
	for i, st := range ordered {
		if s.crossesLink(st) {
			crossing = append(crossing, i)
			totalCross += rates[st.ID]
		}
	}
	if totalCross <= s.prof.LinkCap || totalCross == 0 {
		return
	}
	scale := s.prof.LinkCap / totalCross
	for _, i := range crossing {
		rates[ordered[i].ID] *= scale
	}
}

// oracleApplyPCIeCap bounds the sum of NIC DMA streams by the PCIe capacity.
func (s *System) oracleApplyPCIeCap(ordered []Stream, rates map[int]float64) {
	var comm []int
	total := 0.0
	for i, st := range ordered {
		if st.Kind == KindComm {
			comm = append(comm, i)
			total += rates[st.ID]
		}
	}
	if total <= s.prof.PCIeCap || total == 0 {
		return
	}
	scale := s.prof.PCIeCap / total
	for _, i := range comm {
		rates[ordered[i].ID] *= scale
	}
}
