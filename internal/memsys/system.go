package memsys

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"memcontention/internal/topology"
)

// StreamKind distinguishes the two stream families of Figure 1.
type StreamKind int

// Stream kinds.
const (
	// KindCompute is a core-issued stream (non-temporal stores of the
	// computation kernel).
	KindCompute StreamKind = iota
	// KindComm is a NIC DMA stream (message data arriving from the
	// network and stored to memory).
	KindComm
)

// String implements fmt.Stringer.
func (k StreamKind) String() string {
	switch k {
	case KindCompute:
		return "compute"
	case KindComm:
		return "comm"
	default:
		return fmt.Sprintf("StreamKind(%d)", int(k))
	}
}

// Stream is one steady data flow through the memory system.
type Stream struct {
	// ID must be unique within one Solve call; allocations are keyed
	// by it.
	ID int
	// Kind selects the arbitration class.
	Kind StreamKind
	// Core is the issuing core (compute streams only).
	Core topology.CoreID
	// Node is the NUMA node holding the stream's data.
	Node topology.NodeID
	// Demand is the unconstrained rate in GB/s. For comm streams a zero
	// demand means "the NIC's nominal rate for this node".
	Demand float64
}

// Allocation is the solver's result: the bandwidth granted to each stream.
type Allocation struct {
	// grants holds each stream's granted bandwidth (GB/s), in ascending
	// stream ID order.
	grants []grant
	// ComputeTotal and CommTotal aggregate the granted bandwidth per
	// kind; Total is their sum.
	ComputeTotal float64
	CommTotal    float64
	Total        float64
}

// grant is one stream's share of an Allocation.
type grant struct {
	id   int
	rate float64
}

// Rate returns the granted bandwidth of a stream (0 for unknown IDs).
func (a *Allocation) Rate(id int) float64 {
	i := sort.Search(len(a.grants), func(i int) bool { return a.grants[i].id >= id })
	if i < len(a.grants) && a.grants[i].id == id {
		return a.grants[i].rate
	}
	return 0
}

// System is a memory-system instance: a platform structure plus its
// hardware behaviour profile.
type System struct {
	plat *topology.Platform
	prof *Profile
}

// New builds a memory system, validating profile against platform.
func New(plat *topology.Platform, prof *Profile) (*System, error) {
	if err := plat.Validate(); err != nil {
		return nil, fmt.Errorf("memsys: invalid platform: %w", err)
	}
	if err := prof.Validate(plat); err != nil {
		return nil, fmt.Errorf("memsys: invalid profile for %s: %w", plat.Name, err)
	}
	return &System{plat: plat, prof: prof}, nil
}

// Platform returns the underlying platform.
func (s *System) Platform() *topology.Platform { return s.plat }

// Profile returns the underlying hardware profile.
func (s *System) Profile() *Profile { return s.prof }

// ComputeDemand reports the unconstrained rate of one core's kernel stream
// against the given node (the hardware Bcomp_seq, locality-dependent).
func (s *System) ComputeDemand(core topology.CoreID, node topology.NodeID) float64 {
	if s.plat.CrossesLink(s.plat.Cores[core].Socket, node) {
		return s.prof.PerCoreRemote
	}
	return s.prof.PerCoreLocal
}

// CommDemand reports the NIC's nominal receive rate for data on node (the
// hardware Bcomm_seq, locality-dependent).
func (s *System) CommDemand(node topology.NodeID) float64 {
	return s.prof.NominalComm(node)
}

// nodeGroup collects the streams hitting one memory controller.
type nodeGroup struct {
	node    topology.NodeID
	compute []int // indices into the Solve stream slice
	comm    []int
	nLocal  int // compute accessors on the node's socket
	nRemote int // compute accessors crossing the link
}

// maxStackNodes and maxStackStreams bound the platform and stream-set
// sizes whose per-call scratch Solve keeps on the stack; larger ones use
// the heap. Nothing is kept on System, so Solve is safe for concurrent use.
const (
	maxStackNodes   = 16
	maxStackStreams = 128
)

// scratch returns a zeroed slice of length n, backed by buf when n fits
// and by the heap otherwise.
func scratch[T any](buf []T, n int) []T {
	if n > len(buf) {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

func byID(a, b Stream) int { return cmp.Compare(a.ID, b.ID) }

// Solve assigns a bandwidth to every stream according to the arbitration
// policy described in the package comment. It is deterministic: the result
// depends only on the stream set (IDs included), never on slice order.
//
// Every stream is addressed by its position in ID order; every sum runs in
// that order, so results are reproducible bit for bit.
func (s *System) Solve(streams []Stream) (*Allocation, error) {
	if err := s.checkStreams(streams); err != nil {
		return nil, err
	}
	// Work in ID order so the solve is order-independent. Inputs already
	// in that order (the benchmark's and the engine's) are read in place.
	ordered := streams
	if !slices.IsSortedFunc(streams, byID) {
		ordered = slices.Clone(streams)
		slices.SortFunc(ordered, byID)
	}
	for i := 1; i < len(ordered); i++ {
		if ordered[i].ID == ordered[i-1].ID {
			return nil, fmt.Errorf("memsys: duplicate stream id %d", ordered[i].ID)
		}
	}

	var (
		rateBuf  [maxStackStreams]float64
		idxBuf   [maxStackStreams]int
		startBuf [2*maxStackNodes + 1]int
	)
	rates := scratch(rateBuf[:], len(ordered))
	idx := scratch(idxBuf[:], len(ordered))
	start := scratch(startBuf[:], 2*s.plat.NNodes()+1)
	partitionByNode(ordered, idx, start)
	for node := 0; node < s.plat.NNodes(); node++ {
		lo, mid, hi := start[2*node], start[2*node+1], start[2*node+2]
		if lo == hi {
			continue
		}
		g := nodeGroup{node: topology.NodeID(node), compute: idx[lo:mid], comm: idx[mid:hi]}
		for _, i := range g.compute {
			if s.plat.CrossesLink(s.plat.Cores[ordered[i].Core].Socket, g.node) {
				g.nRemote++
			} else {
				g.nLocal++
			}
		}
		s.solveNode(ordered, &g, rates)
	}
	s.applyMeshPressure(ordered, rates)
	s.applyLinkCap(ordered, rates)
	s.applyPCIeCap(ordered, rates)

	alloc := &Allocation{grants: make([]grant, len(ordered))}
	for i, st := range ordered {
		r := rates[i]
		alloc.grants[i] = grant{id: st.ID, rate: r}
		alloc.Total += r
		if st.Kind == KindCompute {
			alloc.ComputeTotal += r
		} else {
			alloc.CommTotal += r
		}
	}
	return alloc, nil
}

// checkStreams validates each stream's fields; duplicate IDs are caught
// by Solve once the streams are in ID order.
func (s *System) checkStreams(streams []Stream) error {
	for _, st := range streams {
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

// partitionByNode is a counting sort of stream positions by (node, kind).
// On return the compute streams of node d are idx[start[2d]:start[2d+1]]
// and its comm streams idx[start[2d+1]:start[2d+2]], each in ascending
// position. start must be zeroed and hold 2·NNodes+1 entries.
func partitionByNode(ordered []Stream, idx, start []int) {
	slot := func(st Stream) int {
		if st.Kind == KindComm {
			return 2*int(st.Node) + 1
		}
		return 2 * int(st.Node)
	}
	for _, st := range ordered {
		start[slot(st)+1]++
	}
	for k := 1; k < len(start); k++ {
		start[k] += start[k-1]
	}
	// Fill each slot from its start; afterwards start[k] holds the end
	// of slot k, which shifting by one turns back into the starts.
	for i, st := range ordered {
		k := slot(st)
		idx[start[k]] = i
		start[k]++
	}
	copy(start[1:], start[:len(start)-1])
	start[0] = 0
}

// commFactor reports the quirk factor applied to a comm stream's demand:
// on platforms whose network is sensitive to the computation side (pyxis),
// the NIC slows down when every concurrent computation works on the other
// socket.
func (s *System) commFactor(ordered []Stream, commNode topology.NodeID) float64 {
	f := s.prof.Quirks.CrossSocketCommFactor
	if f == 0 || f == 1 {
		return 1
	}
	commSocket, err := s.plat.SocketOfNode(commNode)
	if err != nil {
		return 1
	}
	sawCompute, allOtherSocket := false, true
	for _, st := range ordered {
		if st.Kind != KindCompute {
			continue
		}
		sawCompute = true
		sock, err := s.plat.SocketOfNode(st.Node)
		if err == nil && sock == commSocket {
			allOtherSocket = false
		}
	}
	if sawCompute && allOtherSocket {
		return f
	}
	return 1
}

// blendEnv evaluates the class-appropriate envelope for a group: the local
// curve when every compute accessor sits on the node's socket, the remote
// curve when every one crosses the link, and a count-weighted blend for
// the mixed case the paper leaves to future work.
type blendEnv struct {
	local, remote   Envelope
	nLocal, nRemote int
}

func pickEnv(local, remote Envelope, g *nodeGroup) blendEnv {
	return blendEnv{local: local, remote: remote, nLocal: g.nLocal, nRemote: g.nRemote}
}

func (b blendEnv) at(n float64) float64 {
	switch {
	case b.nRemote == 0:
		return b.local.At(n)
	case b.nLocal == 0:
		return b.remote.At(n)
	default:
		l, r := float64(b.nLocal), float64(b.nRemote)
		return (l*b.local.At(n) + r*b.remote.At(n)) / (l + r)
	}
}

// commReserve computes the bandwidth share the memory system reserves for
// NIC streams when n computing cores with per-core demand perCore compete
// against a comm demand commDemand under the mix envelope env:
//
//   - below the saturation onset the NIC keeps its full demand;
//   - past the onset each additional core shaves CommDecayPerCore — the
//     hardware degrades communications gradually (Figure 2's shrinking
//     blue band), which is exactly why the paper's equation (5)
//     interpolates α(n) instead of stepping to α;
//   - the EarlyCommStart quirk (henri) adds a gentler pre-onset decay of
//     EarlyCommRate per core for local-class computations;
//   - the reserve never drops below the guaranteed floor
//     CommFloorFrac·commDemand (§II-A: no starvation).
func (s *System) commReserve(env blendEnv, n int, perCore, commDemand float64, localClass bool) float64 {
	if commDemand <= 0 {
		return 0
	}
	floor := s.prof.CommFloorFrac * commDemand
	reserve := commDemand
	decay := s.prof.CommDecayPerCore
	if decay > 0 && n > 0 && perCore > 0 {
		// Saturation onset: first core count whose aggregate demand
		// plus the comm demand exceeds the capacity envelope.
		onset := n + 1
		for k := 1; k <= n; k++ {
			if float64(k)*perCore+commDemand > env.at(float64(k)) {
				onset = k
				break
			}
		}
		q := s.prof.Quirks
		// The early-throttling quirk is queuing pressure from cores
		// streaming at full tilt; lightly-demanding cores (e.g. cache-
		// resident kernels) do not trigger it.
		hardStreaming := perCore >= 0.8*s.prof.PerCoreLocal
		if q.EarlyCommStart > 0 && localClass && hardStreaming && q.EarlyCommStart < onset {
			pre := math.Min(float64(n), float64(onset-1)) - float64(q.EarlyCommStart) + 1
			if pre > 0 {
				reserve -= q.EarlyCommRate * pre
			}
		}
		if n >= onset {
			reserve -= decay * float64(n-onset+1)
		}
	}
	if reserve < floor {
		reserve = floor
	}
	if reserve > commDemand {
		reserve = commDemand
	}
	return reserve
}

func (s *System) solveNode(ordered []Stream, g *nodeGroup, rates []float64) {
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
	factor := 1.0
	if len(g.comm) > 0 {
		factor = s.commFactor(ordered, g.node)
	}
	for _, i := range g.comm {
		d := ordered[i].Demand
		if d == 0 {
			d = s.CommDemand(g.node)
		}
		commDemand += d * factor
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

	distribute(ordered, g.compute, compAgg, rates, func(st Stream) float64 {
		if st.Demand != 0 {
			return st.Demand
		}
		return s.ComputeDemand(st.Core, g.node)
	})
	distribute(ordered, g.comm, commAgg, rates, func(st Stream) float64 {
		d := st.Demand
		if d == 0 {
			d = s.CommDemand(g.node)
		}
		return d * factor
	})
}

// distribute splits an aggregate grant among streams proportionally to
// their demands, never exceeding any stream's demand. (With equal demands
// this is an even split; with unequal demands the proportional split can
// leave slack only when the aggregate exceeds total demand, in which case
// every stream is granted its full demand.)
func distribute(ordered []Stream, idx []int, agg float64, rates []float64, demand func(Stream) float64) {
	if len(idx) == 0 {
		return
	}
	total := 0.0
	for _, i := range idx {
		total += demand(ordered[i])
	}
	if total <= 0 {
		for _, i := range idx {
			rates[i] = 0
		}
		return
	}
	scale := agg / total
	if scale > 1 {
		scale = 1
	}
	for _, i := range idx {
		rates[i] = demand(ordered[i]) * scale
	}
}

// applyMeshPressure models contention between NIC DMA and core traffic
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
func (s *System) applyMeshPressure(ordered []Stream, rates []float64) {
	var nodeBuf [maxStackNodes]bool
	computeNodes := scratch(nodeBuf[:], s.plat.NNodes())
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
	// A cross stream is a comm stream on a node no computation touches.
	curSum, floorSum := 0.0, 0.0
	for i, st := range ordered {
		if st.Kind != KindComm || computeNodes[st.Node] {
			continue
		}
		curSum += rates[i]
		d := st.Demand
		if d == 0 {
			d = s.CommDemand(st.Node)
		}
		floorSum += s.prof.CommFloorFrac * d * s.commFactor(ordered, st.Node)
	}
	if curSum <= 0 {
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
	for i, st := range ordered {
		if st.Kind == KindComm && !computeNodes[st.Node] {
			rates[i] *= scale
		}
	}
}

// applyLinkCap enforces the inter-socket link capacity: every stream whose
// path crosses sockets shares LinkCap; excess is removed proportionally.
func (s *System) applyLinkCap(ordered []Stream, rates []float64) {
	totalCross := 0.0
	for i, st := range ordered {
		if s.crossesLink(st) {
			totalCross += rates[i]
		}
	}
	if totalCross <= s.prof.LinkCap || totalCross == 0 {
		return
	}
	scale := s.prof.LinkCap / totalCross
	for i, st := range ordered {
		if s.crossesLink(st) {
			rates[i] *= scale
		}
	}
}

// crossesLink reports whether a stream's data path traverses the
// inter-socket interconnect.
func (s *System) crossesLink(st Stream) bool {
	switch st.Kind {
	case KindCompute:
		return s.plat.CrossesLink(s.plat.Cores[st.Core].Socket, st.Node)
	case KindComm:
		return s.plat.CrossesLink(s.plat.NIC.Socket, st.Node)
	default:
		return false
	}
}

// Links names the shared resources a stream's data path occupies, in
// traversal order from the issuer to the memory: "pcie" (NIC DMA
// streams, bounded by applyPCIeCap), "xlink" (the inter-socket link,
// bounded by applyLinkCap) and "node<N>" (the memory controller of the
// data's NUMA node). Profilers use it to attribute bandwidth shares per
// contended resource.
func (s *System) Links(st Stream) []string {
	links := make([]string, 0, 3)
	if st.Kind == KindComm {
		links = append(links, "pcie")
	}
	if s.crossesLink(st) {
		links = append(links, "xlink")
	}
	return append(links, fmt.Sprintf("node%d", st.Node))
}

// applyPCIeCap bounds the sum of NIC DMA streams by the PCIe capacity.
func (s *System) applyPCIeCap(ordered []Stream, rates []float64) {
	total := 0.0
	for i, st := range ordered {
		if st.Kind == KindComm {
			total += rates[i]
		}
	}
	if total <= s.prof.PCIeCap || total == 0 {
		return
	}
	scale := s.prof.PCIeCap / total
	for i, st := range ordered {
		if st.Kind == KindComm {
			rates[i] *= scale
		}
	}
}
