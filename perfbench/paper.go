package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sync"
	"time"

	"memcontention/internal/campaign"
	"memcontention/internal/eval"
	"memcontention/internal/export"
	"memcontention/internal/model"
)

// paperWL regenerates the paper: every Table I platform evaluated for
// consecutive seeds, each seed's Table II, Figure 2-8 CSVs and
// table2.json rendered in memory. No journal, no registry.
type paperWL struct {
	names []string
	base  uint64 // first measured seed
	warm  uint64 // seed of the set-up evaluation, never measured
	next  uint64 // next seed of the primary loop
}

func (p *paperWL) setup(r *run) error {
	p.names = campaign.TestbedNames()
	p.warm = r.seed*seedBlock + 1
	p.base = p.warm + 1
	p.next = p.base
	// One full evaluation warms the heap and every lazily built table,
	// so the timed phase measures the steady state.
	_, err := campaign.EvaluatePlatforms(campaign.Config{Seed: p.warm, Workers: 1}, p.names)
	return err
}

// figPlatform maps the paper's figure numbers to the platform each
// figure shows (Figure 2 is the stacked view of henri-subnuma).
var figPlatform = map[int]string{3: "henri", 4: "henri-subnuma", 5: "diablo", 6: "occigen", 7: "pyxis", 8: "dahu"}

// render produces one seed's artifacts exactly as paperfigs writes them
// and returns their digest.
func render(results []*eval.PlatformResult) ([32]byte, error) {
	var buf bytes.Buffer
	file := func(name string, fn func() error) error {
		fmt.Fprintf(&buf, "\n== %s\n", name)
		return fn()
	}
	byName := map[string]*eval.PlatformResult{}
	for _, res := range results {
		byName[res.Platform] = res
	}
	if err := file("table2.txt", func() error { return eval.Table2(results).WriteText(&buf) }); err != nil {
		return [32]byte{}, err
	}
	if err := file("table2.json", func() error { return export.WriteJSON(&buf, results) }); err != nil {
		return [32]byte{}, err
	}
	st, err := eval.StackedFor(byName["henri-subnuma"], model.Placement{Comp: 0, Comm: 0})
	if err != nil {
		return [32]byte{}, err
	}
	if err := file("figure2.csv", func() error { return st.WriteCSV(&buf) }); err != nil {
		return [32]byte{}, err
	}
	for fig := 3; fig <= 8; fig++ {
		f := eval.FigureFor(fmt.Sprintf("figure%d", fig), byName[figPlatform[fig]])
		if err := file(fmt.Sprintf("figure%d.csv", fig), func() error { return f.WriteCSV(&buf) }); err != nil {
			return [32]byte{}, err
		}
	}
	return sha256.Sum256(buf.Bytes()), nil
}

// paperSeed is one operation: every platform evaluated for one seed on
// the given number of workers, then the artifacts rendered.
func (p *paperWL) paperSeed(tr *tracer, seed uint64, workers int) ([32]byte, error) {
	op := tr.newOp()
	var digest [32]byte
	err := tr.do("op.paper.seed", op, 0, func(parent int) error {
		var results []*eval.PlatformResult
		if err := tr.do("op.campaign.EvaluatePlatforms", op, parent, func(int) error {
			var err error
			results, err = campaign.EvaluatePlatforms(campaign.Config{Seed: seed, Workers: workers}, p.names)
			return err
		}); err != nil {
			return err
		}
		return tr.do("op.eval.render", op, parent, func(int) error {
			var err error
			digest, err = render(results)
			return err
		})
	})
	return digest, err
}

func (p *paperWL) measure(r *run) error {
	digests := map[uint64][32]byte{}
	var lat [][]float64
	var alloc allocMeter
	var seq, par rates
	// Rounds alternate a block on one worker (the path a reader takes
	// with -workers 1) and a block on two (paperfigs' default on this
	// machine size), so both sample the whole run. Every seed is fresh.
	seed := p.base
	for b := 0; b < rateBlocks; b++ {
		lat = append(lat, nil)
		for _, ph := range []struct {
			workers int
			share   float64
			rates   *rates
		}{{1, 0.6, &seq}, {2, 0.4, &par}} {
			speed := r.host.block(ph.workers)
			if ph.workers == 1 {
				alloc.begin()
			}
			start := time.Now()
			n := 0
			for ; n == 0 || time.Since(start) < r.budget(ph.share)/rateBlocks; n++ {
				t := time.Now()
				d, err := p.paperSeed(nil, seed, ph.workers)
				if ph.workers == 1 {
					lat[b] = append(lat[b], msSince(t))
				}
				if r.op(err) {
					digests[seed] = d
				}
				seed++
				speed.after()
			}
			elapsed := time.Since(start)
			if ph.workers == 1 {
				alloc.end()
			}
			slow := r.host.slowdown(speed)
			ph.rates.add(n, speed.rate(n, elapsed), slow)
			if ph.workers == 1 {
				scaleTimes(lat[b], slow)
			}
		}
	}
	last := seed

	r.add(mOps, seq.median(), unitRate, seq.note("paper regenerations/s (6 platform evaluations + rendering each), 1 worker"))
	r.latencies(lat, 0.9, "paper regeneration, 1 worker, at reference host speed")
	r.add(mParOps, par.median(), unitRate, par.note("paper regenerations/s, 2 workers"))
	r.allocPerOp(alloc, seq.ops)

	// Every seed's artifacts must match the facade path byte for byte,
	// and every platform must stay inside the reproduction gate. The
	// reference runs on two goroutines to keep the run short.
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := p.base
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				s := next
				next++
				want, ok := digests[s]
				mu.Unlock()
				if s >= last {
					return
				}
				if !ok {
					continue
				}
				ref, err := eval.EvaluateTestbed(s)
				var got [32]byte
				if err == nil {
					got, err = render(ref)
				}
				mu.Lock()
				if err != nil || got != want {
					r.problem("paper: seed %d: artifacts differ from eval.EvaluateTestbed (err=%v)", s, err)
				}
				for _, res := range ref {
					if res.Errors.Average <= 0 || res.Errors.Average > 10 {
						r.problem("paper: seed %d: %s Table II average %.2f%% outside (0, 10]", s, res.Platform, res.Errors.Average)
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	r.note("paper: %d seeds checked byte-identical against eval.EvaluateTestbed", len(digests))
	return nil
}

func (p *paperWL) loop(r *run, tr *tracer, d time.Duration) (int, error) {
	start := time.Now()
	n := 0
	for ; time.Since(start) < d; n++ {
		_, err := p.paperSeed(tr, p.next, 1)
		r.op(err)
		p.next++
	}
	return n, nil
}

func (p *paperWL) close() {}
