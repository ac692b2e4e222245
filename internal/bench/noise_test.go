package bench

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"memcontention/internal/kernels"
	"memcontention/internal/model"
	"memcontention/internal/rng"
	"memcontention/internal/topology"
)

// oracleNoise is the noise draw in its plainest form, kept as the
// differential oracle of Runner.noise: a fmt.Sprintf label and heap
// streams from rng.New and Derive.
func oracleNoise(r *Runner, pl model.Placement, n int, metric string, rel float64) float64 {
	if rel <= 0 {
		return 1
	}
	label := fmt.Sprintf("%s|%s|%s|n=%d|%s", r.cfg.Platform.Name, r.cfg.Kernel, pl, n, metric)
	s := rng.New(r.cfg.Seed, label)
	sum := 0.0
	for rep := 0; rep < r.cfg.Repeats; rep++ {
		sum += s.Derive(fmt.Sprintf("rep%d", rep)).Jitter(rel)
	}
	return sum / float64(r.cfg.Repeats)
}

// noiseMetrics are every metric name MeasurePoint and MeasureMixedPoint
// draw noise for.
var noiseMetrics = []string{
	"comp_alone", "comm_alone", "comp_par", "comm_par",
	"mixed_comp_alone", "mixed_comm_alone", "mixed_comp_par", "mixed_comm_par",
}

// TestNoiseMatchesOracle requires the byte-built noise labels to draw
// exactly the factors of the Sprintf oracle: random placements and core
// counts, every metric, built-in and custom kernel names (including a
// separator, non-ASCII bytes and a label longer than the stack buffer),
// 1–5 repeats, and rel = 0.
func TestNoiseMatchesOracle(t *testing.T) {
	custom := kernels.New(kernels.NTMemset)
	custom.Name = "stencil|7pt·Ω\xff"
	long := kernels.New(kernels.Copy)
	long.Name = strings.Repeat("κ|", 80)
	src := rand.New(rand.NewSource(14))
	for _, plat := range topology.Testbed() {
		for _, k := range []kernels.Kernel{kernels.New(kernels.Triad), custom, long} {
			for repeats := 1; repeats <= 5; repeats++ {
				r, err := NewRunner(Config{Platform: plat, Kernel: k, Seed: src.Uint64(), Repeats: repeats})
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 40; i++ {
					pl := model.Placement{
						Comp: topology.NodeID(src.Intn(plat.NNodes())),
						Comm: topology.NodeID(src.Intn(plat.NNodes())),
					}
					n := 1 + src.Intn(plat.NCores())
					if i%10 == 0 {
						n = src.Int() // many-digit core counts
					}
					metric := noiseMetrics[i%len(noiseMetrics)]
					for _, rel := range []float64{0, 0.002, 0.01 + src.Float64()/10} {
						got := r.noise(pl, n, metric, rel)
						want := oracleNoise(r, pl, n, metric, rel)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s kernel %q rep=%d %v n=%d %s rel=%g: noise %v, oracle %v",
								plat.Name, k, repeats, pl, n, metric, rel, got, want)
						}
					}
				}
			}
		}
	}
}

// TestNoiseAllocationFree pins the hot path's allocation budget: a noise
// draw allocates nothing.
func TestNoiseAllocationFree(t *testing.T) {
	r := henriRunner(t, 3)
	pl := model.Placement{Comp: 1, Comm: 0}
	if allocs := testing.AllocsPerRun(100, func() { r.noise(pl, 17, "comm_par", 0.01) }); allocs != 0 {
		t.Errorf("noise allocates %v objects per call, want 0", allocs)
	}
}
