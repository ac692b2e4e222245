package memsys

import (
	"testing"
	"testing/quick"

	"memcontention/internal/topology"
)

// Property-based tests of the arbitration policy, run across all built-in
// hardware profiles. These pin down the §II-A hypotheses as machine-
// checkable invariants.

// forEachSystem builds a system per profile.
func forEachSystem(t *testing.T, fn func(name string, sys *System)) {
	t.Helper()
	for _, plat := range topology.Testbed() {
		prof, err := ProfileFor(plat.Name)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := New(plat, prof)
		if err != nil {
			t.Fatal(err)
		}
		fn(plat.Name, sys)
	}
}

// TestPropCommMonotoneInCores: adding computing cores never *increases*
// the bandwidth granted to communications (CPU traffic only ever hurts
// the NIC).
func TestPropCommMonotoneInCores(t *testing.T) {
	forEachSystem(t, func(name string, sys *System) {
		plat := sys.Platform()
		for _, commNode := range []topology.NodeID{0, topology.NodeID(plat.NodesPerSocket())} {
			for _, compNode := range []topology.NodeID{0, topology.NodeID(plat.NodesPerSocket())} {
				prev := -1.0
				for n := 0; n <= plat.CoresPerSocket(); n++ {
					streams := computeStreams(sys, n, compNode)
					streams = append(streams, commStream(1000, commNode))
					alloc, err := sys.Solve(streams)
					if err != nil {
						t.Fatal(err)
					}
					if prev >= 0 && alloc.CommTotal > prev+1e-9 {
						t.Errorf("%s comp@%d/comm@%d: comm grew from %.3f to %.3f at n=%d",
							name, compNode, commNode, prev, alloc.CommTotal, n)
					}
					prev = alloc.CommTotal
				}
			}
		}
	})
}

// TestPropComputeMonotoneInCores: aggregate compute bandwidth never
// decreases sharply when a core is added (weak scaling may saturate and
// gently decline, but a single extra core cannot crater the total by more
// than the envelope's steepest slope plus the comm reserve shift).
func TestPropComputeMonotoneInCores(t *testing.T) {
	forEachSystem(t, func(name string, sys *System) {
		plat := sys.Platform()
		prev := 0.0
		for n := 1; n <= plat.CoresPerSocket(); n++ {
			streams := append(computeStreams(sys, n, 0), commStream(1000, 0))
			alloc, err := sys.Solve(streams)
			if err != nil {
				t.Fatal(err)
			}
			if alloc.ComputeTotal < prev-5.0 {
				t.Errorf("%s: compute total dropped %.2f → %.2f at n=%d", name, prev, alloc.ComputeTotal, n)
			}
			prev = alloc.ComputeTotal
		}
	})
}

// TestPropTotalBounded: the granted total never exceeds the sum of all
// demands, and never exceeds the mixed envelope (same-node case).
func TestPropTotalBounded(t *testing.T) {
	forEachSystem(t, func(name string, sys *System) {
		plat := sys.Platform()
		f := func(nRaw, nodeRaw uint8) bool {
			n := int(nRaw)%plat.CoresPerSocket() + 1
			node := topology.NodeID(int(nodeRaw) % plat.NNodes())
			streams := append(computeStreams(sys, n, node), commStream(1000, node))
			demand := 0.0
			for _, st := range streams {
				d := st.Demand
				if d == 0 {
					d = sys.CommDemand(st.Node)
				}
				demand += d
			}
			alloc, err := sys.Solve(streams)
			if err != nil {
				return false
			}
			return alloc.Total <= demand+1e-9
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	})
}

// TestPropScaleWithKernelDemand: doubling every compute stream's demand
// never decreases the aggregate compute grant (more pressure extracts at
// least as much, up to the envelope).
func TestPropScaleWithKernelDemand(t *testing.T) {
	forEachSystem(t, func(name string, sys *System) {
		plat := sys.Platform()
		for n := 1; n <= plat.CoresPerSocket(); n += 3 {
			base := computeStreams(sys, n, 0)
			scaled := make([]Stream, len(base))
			copy(scaled, base)
			for i := range scaled {
				scaled[i].Demand *= 2
			}
			a, err := sys.Solve(base)
			if err != nil {
				t.Fatal(err)
			}
			b, err := sys.Solve(scaled)
			if err != nil {
				t.Fatal(err)
			}
			if b.ComputeTotal < a.ComputeTotal-1e-9 {
				t.Errorf("%s n=%d: doubled demand extracted less (%.2f < %.2f)", name, n, b.ComputeTotal, a.ComputeTotal)
			}
		}
	})
}

// TestPropRemoteWorseThanLocal: for the same core count, remote compute
// extracts at most as much as local compute (NUMA penalty).
func TestPropRemoteWorseThanLocal(t *testing.T) {
	forEachSystem(t, func(name string, sys *System) {
		plat := sys.Platform()
		remoteNode := topology.NodeID(plat.NodesPerSocket())
		for n := 1; n <= plat.CoresPerSocket(); n++ {
			local, err := sys.Solve(computeStreams(sys, n, 0))
			if err != nil {
				t.Fatal(err)
			}
			remote, err := sys.Solve(computeStreams(sys, n, remoteNode))
			if err != nil {
				t.Fatal(err)
			}
			if remote.ComputeTotal > local.ComputeTotal+1e-9 {
				t.Errorf("%s n=%d: remote %.2f exceeds local %.2f", name, n, remote.ComputeTotal, local.ComputeTotal)
			}
		}
	})
}

// TestPropIdempotentSolve: solving the same stream set twice gives the
// same allocation (the solver holds no hidden state).
func TestPropIdempotentSolve(t *testing.T) {
	forEachSystem(t, func(name string, sys *System) {
		streams := append(computeStreams(sys, 7, 0), commStream(1000, 0))
		a, err := sys.Solve(streams)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			b, err := sys.Solve(streams)
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range a.grants {
				if b.Rate(g.id) != g.rate {
					t.Fatalf("%s: solver state leaked between calls", name)
				}
			}
		}
	})
}
