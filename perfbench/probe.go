package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// probeRefMs is the median time of one speedProbe.run on the reference
// machine (2-vCPU Intel Xeon VM, Go 1.24). A host slowdown of 1 means
// the host ran as fast as it usually does there.
const probeRefMs = 4.4

// probesPerSample is how many probes bracket each side of a set-up.
const probesPerSample = 5

// speedProbe is a fixed piece of CPU work that shares nothing with the
// program under test: integer hashing, float math, a map and a sort on
// buffers allocated once, so it neither allocates nor waits on the
// garbage collector of the program's heap. Its time tracks how fast the
// shared host runs at the moment.
type speedProbe struct {
	src, work []float64
	m         map[int]float64
	sink      float64
}

func (p *speedProbe) run() {
	if p.src == nil {
		p.src, p.work, p.m = make([]float64, 2048), make([]float64, 2048), make(map[int]float64, 512)
	}
	x := uint64(88172645463325252)
	for round := 0; round < 16; round++ {
		clear(p.m)
		for i := range p.src {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			p.src[i] = float64(x%1_000_000) / 1000
			p.m[int(x%509)] += math.Sqrt(p.src[i])
		}
		copy(p.work, p.src)
		sort.Float64s(p.work)
		for _, v := range p.m {
			p.sink += v
		}
		p.sink += p.work[len(p.work)/2]
	}
}

// hostMeter samples the host's slowdown against the reference machine.
// CPU-bound workloads time the probe between the operations of each
// timed block and scale the block's times to the reference speed, so
// that drift of the shared host, which moves this probe and the program
// alike, cancels out while a change to the program does not. A nil
// hostMeter reports a slowdown of 1 and leaves times as measured.
type hostMeter struct {
	probe   speedProbe
	samples []float64 // one slowdown per block or set-up
}

// probeEvery is the least time between two probes on one goroutine of
// a timed block; one probe costs about a tenth of that.
const probeEvery = 50 * time.Millisecond

// blockSpeed samples the host's speed between the operations of one
// goroutine in one timed block.
type blockSpeed struct {
	probes []*speedProbe // run side by side; none: no sampling
	last   time.Time
	spent  time.Duration
	ms     []float64
}

// block returns a sampler for one goroutine of a timed block whose
// operations each keep width cores busy; it runs width probes side by
// side. Create it before the block's allocation meter starts: the
// probes allocate their buffers here and never again.
func (h *hostMeter) block(width int) *blockSpeed {
	b := &blockSpeed{}
	if h == nil {
		return b
	}
	for i := 0; i < width; i++ {
		p := &speedProbe{}
		p.run()
		b.probes = append(b.probes, p)
	}
	return b
}

// after runs after each operation. The first call and every call at
// least probeEvery after the previous probe time the probes, which are
// kept out of the block's measured time.
func (b *blockSpeed) after() {
	if len(b.probes) == 0 || time.Since(b.last) < probeEvery {
		return
	}
	ms := make([]float64, len(b.probes))
	t := time.Now()
	var wg sync.WaitGroup
	for i, p := range b.probes[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.Now()
			p.run()
			ms[i+1] = msSince(t)
		}()
	}
	b.probes[0].run()
	ms[0] = msSince(t)
	wg.Wait()
	b.last = time.Now()
	b.spent += b.last.Sub(t)
	b.ms = append(b.ms, ms...)
}

// rate is ops per second of the block's time spent outside probes.
func (b *blockSpeed) rate(ops int, elapsed time.Duration) float64 {
	return float64(ops) / (elapsed - b.spent).Seconds()
}

// slowdown returns the median probe time of a block's samplers over
// probeRefMs.
func (h *hostMeter) slowdown(bs ...*blockSpeed) float64 {
	if h == nil {
		return 1
	}
	var ms []float64
	for _, b := range bs {
		ms = append(ms, b.ms...)
	}
	s := median(ms) / probeRefMs
	h.samples = append(h.samples, s)
	return s
}

// bracket times probesPerSample probes before and after a call that
// cannot be interleaved with probes, such as a set-up.
func (h *hostMeter) bracket(fn func() error) (time.Duration, float64, error) {
	if h == nil {
		t := time.Now()
		err := fn()
		return time.Since(t), 1, err
	}
	var ms []float64
	sample := func() {
		for i := 0; i < probesPerSample; i++ {
			t := time.Now()
			h.probe.run()
			ms = append(ms, msSince(t))
		}
	}
	sample()
	t := time.Now()
	err := fn()
	d := time.Since(t)
	sample()
	s := median(ms) / probeRefMs
	h.samples = append(h.samples, s)
	return d, s, err
}

func (h *hostMeter) summary() string {
	return fmt.Sprintf("host slowdown against the reference probe (%.1f ms): median %.4f, range %.4f-%.4f over %d blocks and set-ups; time metrics are scaled to the reference speed",
		probeRefMs, median(h.samples), quantile(h.samples, 0), quantile(h.samples, 1), len(h.samples))
}

// scaleTimes divides a block's times by the host's slowdown over it.
func scaleTimes(xs []float64, slow float64) {
	for i := range xs {
		xs[i] /= slow
	}
}
