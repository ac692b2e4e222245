package memsys

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"memcontention/internal/topology"
)

// builtinSystems builds one system per built-in platform, in testbed order.
func builtinSystems(tb testing.TB) []*System {
	tb.Helper()
	var out []*System
	for _, plat := range topology.Testbed() {
		prof, err := ProfileFor(plat.Name)
		if err != nil {
			tb.Fatal(err)
		}
		sys, err := New(plat, prof)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, sys)
	}
	return out
}

// maxDecodedStreams keeps decoded sets past maxStackStreams, so both the
// stack and the heap scratch of Solve are exercised.
const maxDecodedStreams = 2 * maxStackStreams

// decodeStreams turns arbitrary bytes into a valid stream set for sys,
// five bytes per stream: a flag byte, core, node, and a little-endian
// demand in MB/s. The flag byte's bit 0 selects a comm stream, bit 1 keeps
// the nominal demand (Demand 0), and the rest is the gap to the previous
// ID. IDs ascend from -3, so the set is ID-ordered and duplicate-free.
func decodeStreams(sys *System, data []byte) []Stream {
	plat := sys.Platform()
	var out []Stream
	id := -3
	for len(data) >= 5 && len(out) < maxDecodedStreams {
		b := data[:5]
		data = data[5:]
		id += 1 + int(b[0]>>2)
		st := Stream{ID: id, Kind: KindCompute, Node: topology.NodeID(int(b[2]) % plat.NNodes())}
		if b[0]&1 != 0 {
			st.Kind = KindComm
		} else {
			st.Core = topology.CoreID(int(b[1]) % plat.NCores())
		}
		if b[0]&2 == 0 {
			st.Demand = float64(binary.LittleEndian.Uint16(b[3:])) / 1000
		}
		out = append(out, st)
	}
	return out
}

// shuffled returns a permutation of streams drawn from seed.
func shuffled(streams []Stream, seed int64) []Stream {
	out := slices.Clone(streams)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// sameBits reports whether two allocations grant identical bits.
func sameBits(a, b *Allocation) bool {
	if math.Float64bits(a.Total) != math.Float64bits(b.Total) ||
		math.Float64bits(a.ComputeTotal) != math.Float64bits(b.ComputeTotal) ||
		math.Float64bits(a.CommTotal) != math.Float64bits(b.CommTotal) ||
		len(a.grants) != len(b.grants) {
		return false
	}
	for i, g := range a.grants {
		if g.id != b.grants[i].id || math.Float64bits(g.rate) != math.Float64bits(b.grants[i].rate) {
			return false
		}
	}
	return true
}

// checkSolve solves a valid stream set in ID order and in the given
// permutation and asserts, for both:
//   - the grants and totals match the map-based oracle bit for bit;
//   - no rate is NaN, infinite or negative;
//   - no stream gets more than its (quirk-adjusted) demand;
//   - a lone nominal NIC stream that stays on the NIC's socket keeps its
//     guaranteed floor (§II-A);
//   - the result is invariant under the permutation.
func checkSolve(tb testing.TB, sys *System, streams, perm []Stream) {
	tb.Helper()
	got, err := sys.Solve(streams)
	if err != nil {
		tb.Fatalf("%s: %v", sys.plat.Name, err)
	}
	want, err := sys.oracleSolve(streams)
	if err != nil {
		tb.Fatalf("%s: oracle: %v", sys.plat.Name, err)
	}
	if len(got.grants) != len(want.Rates) {
		tb.Fatalf("%s: %d grants, oracle %d", sys.plat.Name, len(got.grants), len(want.Rates))
	}
	for _, g := range got.grants {
		if w, ok := want.Rates[g.id]; !ok || math.Float64bits(g.rate) != math.Float64bits(w) {
			tb.Fatalf("%s stream %d: rate %v, oracle %v", sys.plat.Name, g.id, g.rate, w)
		}
	}
	for _, pair := range [][2]float64{{got.Total, want.Total}, {got.ComputeTotal, want.ComputeTotal}, {got.CommTotal, want.CommTotal}} {
		if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
			tb.Fatalf("%s: totals %v/%v/%v, oracle %v/%v/%v", sys.plat.Name,
				got.Total, got.ComputeTotal, got.CommTotal, want.Total, want.ComputeTotal, want.CommTotal)
		}
	}

	nComm := 0
	for _, st := range streams {
		if st.Kind == KindComm {
			nComm++
		}
	}
	for _, st := range streams {
		r := got.Rate(st.ID)
		if math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
			tb.Fatalf("%s stream %d: rate %v", sys.plat.Name, st.ID, r)
		}
		demand := st.Demand
		switch {
		case st.Kind == KindCompute && demand == 0:
			demand = sys.ComputeDemand(st.Core, st.Node)
		case st.Kind == KindComm:
			if demand == 0 {
				demand = sys.CommDemand(st.Node)
			}
			demand *= sys.commFactor(streams, st.Node)
		}
		if r > demand {
			tb.Fatalf("%s stream %d: rate %v exceeds demand %v", sys.plat.Name, st.ID, r, demand)
		}
		if st.Kind == KindComm && nComm == 1 && st.Demand == 0 && !sys.crossesLink(st) {
			floor := sys.prof.CommFloorFrac * demand
			if r < floor {
				tb.Fatalf("%s stream %d: comm rate %v below floor %v", sys.plat.Name, st.ID, r, floor)
			}
		}
	}

	p, err := sys.Solve(perm)
	if err != nil {
		tb.Fatalf("%s: permuted: %v", sys.plat.Name, err)
	}
	if !sameBits(got, p) {
		tb.Fatalf("%s: allocation depends on stream order", sys.plat.Name)
	}
}

// TestSolveMatchesOracle runs checkSolve over random stream sets of up
// to maxDecodedStreams streams on every built-in platform, and over the
// benchmark's own sets (n socket-0 cores on one node, one NIC stream on
// any node).
func TestSolveMatchesOracle(t *testing.T) {
	src := rand.New(rand.NewSource(14))
	for _, sys := range builtinSystems(t) {
		for i := 0; i < 1500; i++ {
			data := make([]byte, 5*src.Intn(maxDecodedStreams+8))
			src.Read(data)
			streams := decodeStreams(sys, data)
			checkSolve(t, sys, streams, shuffled(streams, src.Int63()))
		}
		plat := sys.Platform()
		for comp := 0; comp < plat.NNodes(); comp++ {
			for comm := 0; comm < plat.NNodes(); comm++ {
				for n := 1; n <= plat.CoresPerSocket(); n++ {
					streams := append(computeStreams(sys, n, topology.NodeID(comp)), commStream(1<<20, topology.NodeID(comm)))
					checkSolve(t, sys, streams, shuffled(streams, int64(n)))
				}
			}
		}
	}
}

// TestSolveLeavesInputAlone: Solve neither reorders nor edits the
// caller's slice, whether it reads it in place (ID-ordered) or not.
func TestSolveLeavesInputAlone(t *testing.T) {
	sys := henriSys(t)
	sorted := append(computeStreams(sys, 9, 1), commStream(1000, 0))
	for _, streams := range [][]Stream{sorted, shuffled(sorted, 3)} {
		before := slices.Clone(streams)
		if _, err := sys.Solve(streams); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(streams, before) {
			t.Error("Solve modified its input")
		}
	}
}

// FuzzSolve drives checkSolve with arbitrary stream sets on every
// built-in platform.
func FuzzSolve(f *testing.F) {
	// A nominal core on node 0 plus a nominal NIC stream; testdata/fuzz
	// holds larger benchmark-shaped sets.
	f.Add(uint8(0), []byte{2, 0, 0, 0, 0, 3, 0, 0, 0, 0})
	systems := builtinSystems(f)
	f.Fuzz(func(t *testing.T, plat uint8, data []byte) {
		sys := systems[int(plat)%len(systems)]
		streams := decodeStreams(sys, data)
		checkSolve(t, sys, streams, shuffled(streams, int64(len(data))))
	})
}

// TestSolveConcurrent: Solve keeps its scratch per call, so goroutines
// sharing one System get the sequential answer (run under -race).
func TestSolveConcurrent(t *testing.T) {
	sys := henriSys(t)
	sets := make([][]Stream, 8)
	want := make([]*Allocation, len(sets))
	for i := range sets {
		sets[i] = append(computeStreams(sys, 2+2*i, topology.NodeID(i%2)), commStream(1000, 0))
		a, err := sys.Solve(sets[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = a
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				i := (g + rep) % len(sets)
				a, err := sys.Solve(sets[i])
				if err != nil {
					t.Error(err)
					return
				}
				if !sameBits(a, want[i]) {
					t.Errorf("goroutine %d: set %d solved differently", g, i)
					return
				}
			}
		}()
	}
	wg.Wait()
}
