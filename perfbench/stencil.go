package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"memcontention"
	"memcontention/internal/campaign"
	"memcontention/internal/obs"
)

const (
	stencilDomains    = 4 // GiB sizes 1..4 per platform
	stencilMachines   = 4
	stencilIterations = 3
	// crossCheckPlatform runs campaign.CrossCheck's overlap scenario
	// once per pass over the configurations.
	crossCheckPlatform = "henri"
)

// stencilCase is one DES run: a halo-exchange configuration, or the
// campaign cross-check when cfg is unset.
type stencilCase struct {
	name     string
	platform string
	cfg      memcontention.StencilConfig
	cross    bool
}

// stencilWL runs the discrete-event simulator: seeded halo-exchange
// scenarios, each naive and model-advised, sequential and overlapped,
// with a live registry attached.
type stencilWL struct {
	cases []stencilCase
	// scenarios holds, per scenario, the case indices of the naive
	// sequential, naive overlapped and advised overlapped runs.
	scenarios [][3]int
	reg       *obs.Registry
	mu        sync.Mutex
	sim       map[int]float64 // case -> first simulated time seen
	next      atomic.Int64
}

func (s *stencilWL) setup(r *run) error {
	rng := rand.New(rand.NewSource(int64(r.seed)))
	models := map[string]memcontention.Model{}
	s.cases, s.scenarios = nil, nil
	// Every run covers both platforms at every domain size; the seed
	// draws the halo sizes and the order, so the mix of work, and with
	// it the cost of a run, is the same for every seed.
	type scenario struct {
		platform string
		domain   int
	}
	var plan []scenario
	for _, platform := range []string{"henri", "henri-subnuma"} {
		for domain := 1; domain <= stencilDomains; domain++ {
			plan = append(plan, scenario{platform, domain})
		}
	}
	rng.Shuffle(len(plan), func(i, j int) { plan[i], plan[j] = plan[j], plan[i] })
	for _, sc := range plan {
		platform := sc.platform
		plat, err := memcontention.PlatformByName(platform)
		if err != nil {
			return err
		}
		m, ok := models[platform]
		if !ok {
			if m, err = memcontention.Calibrate(platform, r.seed*seedBlock+1); err != nil {
				return err
			}
			models[platform] = m
		}
		base := memcontention.StencilConfig{
			Machines:    stencilMachines,
			Iterations:  stencilIterations,
			DomainBytes: memcontention.ByteSize(sc.domain) * memcontention.GiB,
			HaloBytes:   memcontention.ByteSize(16*(1+rng.Intn(4))) * memcontention.MiB,
		}
		advice, err := memcontention.AdviseStencil(m, plat, base)
		if err != nil {
			return err
		}
		advised := base
		advised.Cores, advised.CompNode, advised.CommNode = advice.Cores, advice.Placement.Comp, advice.Placement.Comm
		naive := memcontention.NaiveStencilConfig(plat, base)
		for _, sched := range []memcontention.StencilSchedule{memcontention.StencilSequential, memcontention.StencilOverlap} {
			for _, c := range []struct {
				kind string
				cfg  memcontention.StencilConfig
			}{{"naive", naive}, {"advised", advised}} {
				c.cfg.Schedule = sched
				s.cases = append(s.cases, stencilCase{
					name:     fmt.Sprintf("%s/%s/%s/domain=%v/halo=%v", platform, c.kind, sched, c.cfg.DomainBytes, c.cfg.HaloBytes),
					platform: platform, cfg: c.cfg,
				})
			}
		}
		n := len(s.cases)
		s.scenarios = append(s.scenarios, [3]int{n - 4, n - 2, n - 1})
	}
	s.cases = append(s.cases, stencilCase{name: "campaign.CrossCheck/" + crossCheckPlatform, platform: crossCheckPlatform, cross: true})
	s.reg = obs.NewRegistry()
	s.sim = map[int]float64{}
	// One warm-up sweep runs every configuration once, so the timed runs
	// start from a warm heap and are each checked against a first run.
	for i := range s.cases {
		if _, err := s.runCase(nil, s.reg, i, 0, 0); err != nil {
			return err
		}
	}
	return nil
}

// runCase executes one case on a fresh cluster and checks that its
// simulated time repeats exactly.
func (s *stencilWL) runCase(tr *tracer, reg *obs.Registry, i, op, parent int) (float64, error) {
	c := s.cases[i]
	var sim float64
	err := tr.do("op.stencil.run", op, parent, func(parent int) error {
		if c.cross {
			res, err := campaign.CrossCheck(campaign.Config{Registry: reg}, c.platform)
			if err != nil {
				return err
			}
			sim = res.SimSeconds
			return nil
		}
		var cluster *memcontention.Cluster
		if err := tr.do("op.memcontention.NewCluster", op, parent, func(int) error {
			var err error
			cluster, err = memcontention.NewCluster(c.platform, c.cfg.Machines)
			return err
		}); err != nil {
			return err
		}
		cluster.WithRegistry(reg)
		return tr.do("op.memcontention.RunStencil", op, parent, func(int) error {
			res, err := memcontention.RunStencil(cluster, c.cfg)
			sim = res.SimTime
			return err
		})
	})
	if err != nil {
		return 0, fmt.Errorf("stencil: %s: %w", c.name, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.sim[i]; ok && prev != sim {
		return sim, fmt.Errorf("stencil: %s: simulated %v s, earlier run %v s", c.name, sim, prev)
	}
	s.sim[i] = sim
	return sim, nil
}

// sweep is one operation: every case run once, in order. It returns the
// simulated time summed over the cases.
func (s *stencilWL) sweep(r *run, tr *tracer, reg *obs.Registry, mu *sync.Mutex) float64 {
	op := tr.newOp()
	total := 0.0
	tr.do("op.stencil.sweep", op, 0, func(parent int) error {
		for i := range s.cases {
			sim, err := s.runCase(tr, reg, i, op, parent)
			total += sim
			if mu != nil {
				mu.Lock()
			}
			r.op(err)
			if mu != nil {
				mu.Unlock()
			}
		}
		return nil
	})
	return total
}

func (s *stencilWL) measure(r *run) error {
	var lat [][]float64
	var alloc allocMeter
	var seq, par rates
	var mu sync.Mutex
	// Rounds alternate a block on one goroutine and a block on two, each
	// run on its own cluster and all sharing the registry.
	for b := 0; b < rateBlocks; b++ {
		speed := r.host.block(1)
		alloc.begin()
		start := time.Now()
		n := 0
		lat = append(lat, nil)
		for ; n == 0 || time.Since(start) < r.budget(0.6)/rateBlocks; n++ {
			t := time.Now()
			s.sweep(r, nil, s.reg, nil)
			lat[b] = append(lat[b], msSince(t))
			speed.after()
		}
		elapsed := time.Since(start)
		alloc.end()
		slow := r.host.slowdown(speed)
		seq.add(n, speed.rate(n, elapsed), slow)
		scaleTimes(lat[b], slow)

		// Each goroutine samples the host between its own sweeps; the
		// block's rate is the sum of their rates.
		var pn atomic.Int64
		var wg sync.WaitGroup
		speeds := []*blockSpeed{r.host.block(1), r.host.block(1)}
		ns := make([]int, len(speeds))
		elapsed2 := make([]time.Duration, len(speeds))
		start = time.Now()
		deadline := start.Add(r.budget(0.4) / rateBlocks)
		for w := range speeds {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for pn.Load() == 0 || time.Now().Before(deadline) {
					s.sweep(r, nil, s.reg, &mu)
					pn.Add(1)
					ns[w]++
					speeds[w].after()
				}
				elapsed2[w] = time.Since(start)
			}()
		}
		wg.Wait()
		perSec := 0.0
		for w, sp := range speeds {
			if ns[w] > 0 {
				perSec += sp.rate(ns[w], elapsed2[w])
			}
		}
		par.add(int(pn.Load()), perSec, r.host.slowdown(speeds...))
	}

	r.add(mOps, seq.median(), unitRate, seq.note(fmt.Sprintf("sweeps/s (%d DES runs each: the configurations and the cross-check), 1 goroutine", len(s.cases))))
	r.latencies(lat, 0.9, "sweep, 1 goroutine, at reference host speed")
	r.add(mParOps, par.median(), unitRate, par.note("sweeps/s, 2 goroutines"))
	r.allocPerOp(alloc, seq.ops)
	// The advised overlapped run must beat the contention-unaware
	// baseline. Against the naive overlapped run the model can be wrong
	// where its predicted gain is small; that is counted, not hidden.
	losses := 0
	for _, sc := range s.scenarios {
		seq, ovl, adv := s.sim[sc[0]], s.sim[sc[1]], s.sim[sc[2]]
		if !(adv < seq) {
			r.problem("stencil: %s: advised %v s does not beat naive sequential %v s", s.cases[sc[2]].name, adv, seq)
		}
		if !(adv < ovl) {
			losses++
			r.note("stencil: %s: advised %v s is slower than naive overlapped %v s", s.cases[sc[2]].name, adv, ovl)
		}
	}
	r.note("stencil: advised beats naive overlapped in %d of %d scenarios", len(s.scenarios)-losses, len(s.scenarios))
	return nil
}

func (s *stencilWL) loop(r *run, tr *tracer, d time.Duration) (int, error) {
	start := time.Now()
	n := 0
	for ; time.Since(start) < d; n++ {
		s.sweep(r, tr, s.reg, nil)
	}
	return n, nil
}

func (s *stencilWL) close() {}
