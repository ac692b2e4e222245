// Package bench reproduces the paper's benchmarking program (§IV-A1): for
// every possible number of computing cores it measures 1) computations
// alone, 2) communications alone, 3) both in parallel, for a given
// placement of computation and communication data on NUMA nodes.
//
// Computations are a weak-scaling non-temporal memset spread over the
// first socket's cores; communications receive large messages from a peer
// machine, their bandwidth being the receive bandwidth observed at the
// NIC. Steady-state bandwidths come from the memsys solver; seeded
// multiplicative noise reproduces run-to-run variability (kept "very low"
// as the paper reports, except on platforms flagged unstable).
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strconv"

	"memcontention/internal/checkpoint"
	"memcontention/internal/kernels"
	"memcontention/internal/memsys"
	"memcontention/internal/model"
	"memcontention/internal/obs"
	"memcontention/internal/rng"
	"memcontention/internal/topology"
	"memcontention/internal/units"
)

// Config parameterises a benchmark campaign.
type Config struct {
	// Platform and Profile describe the machine. Profile may be nil for
	// built-in platforms, in which case the hand-tuned profile is used.
	Platform *topology.Platform
	Profile  *memsys.Profile
	// Kernel is the computation kernel (default: non-temporal memset).
	Kernel kernels.Kernel
	// MessageSize is the received message size (default 64 MiB). The
	// steady-state bandwidth does not depend on it, but it is recorded
	// with the results and used by the DES cross-check.
	MessageSize units.ByteSize
	// Seed drives the measurement noise (default 1).
	Seed uint64
	// Repeats is the number of averaged measurement runs (default 3).
	Repeats int
	// Bidirectional adds the paper's §VI extension: a second,
	// send-direction stream (ping-pong instead of pong-only).
	Bidirectional bool
	// Registry, when set, receives benchmark telemetry (sample counts,
	// solver calls, bandwidth histograms). Nil disables instrumentation
	// at zero cost.
	Registry *obs.Registry
	// Context, when set, lets a campaign driver cancel the sweep between
	// placements: RunPlacement/RunAll/RunSamples return ctx's error at
	// the next point boundary. Nil (or context.Background()) keeps the
	// measurement loops check-free.
	Context context.Context
}

// withDefaults fills unset fields.
func (c Config) withDefaults() (Config, error) {
	if c.Platform == nil {
		return c, fmt.Errorf("bench: nil platform")
	}
	if c.Profile == nil {
		prof, err := memsys.ProfileFor(c.Platform.Name)
		if err != nil {
			return c, fmt.Errorf("bench: %w (pass an explicit profile for custom platforms)", err)
		}
		c.Profile = prof
	}
	if c.Kernel.DemandFactor == 0 {
		c.Kernel = kernels.New(kernels.NTMemset)
	}
	if c.MessageSize == 0 {
		c.MessageSize = 64 * units.MiB
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Repeats <= 0 {
		c.Repeats = 3
	}
	return c, nil
}

// Point is one benchmark measurement: the four bandwidths for n computing
// cores (GB/s).
type Point struct {
	N         int     `json:"n"`
	CompAlone float64 `json:"comp_alone"`
	CommAlone float64 `json:"comm_alone"`
	CompPar   float64 `json:"comp_par"`
	CommPar   float64 `json:"comm_par"`
}

// TotalPar is the stacked total of Figure 2.
func (p Point) TotalPar() float64 { return p.CompPar + p.CommPar }

// Curve is the benchmark output for one placement: points for
// n = 1..cores(socket 0).
type Curve struct {
	Platform  string          `json:"platform"`
	Placement model.Placement `json:"placement"`
	Kernel    string          `json:"kernel"`
	Points    []Point         `json:"points"`
}

// Series extracts one measured series; name is one of "comp_alone",
// "comm_alone", "comp_par", "comm_par", "total_par".
func (c *Curve) Series(name string) ([]float64, error) {
	out := make([]float64, len(c.Points))
	for i, p := range c.Points {
		switch name {
		case "comp_alone":
			out[i] = p.CompAlone
		case "comm_alone":
			out[i] = p.CommAlone
		case "comp_par":
			out[i] = p.CompPar
		case "comm_par":
			out[i] = p.CommPar
		case "total_par":
			out[i] = p.TotalPar()
		default:
			return nil, fmt.Errorf("bench: unknown series %q", name)
		}
	}
	return out, nil
}

// Runner executes benchmark campaigns on one machine.
type Runner struct {
	cfg     Config
	sys     *memsys.System
	m       benchInstruments
	done    <-chan struct{}
	journal *checkpoint.Journal
	scope   string
	// cores are socket 0's cores, the pool MeasurePoint draws from.
	cores []topology.CoreID
	// noisePrefix ("platform|kernel|") and repKeys (the hashed "rep<i>"
	// labels, one per repeat) are the constant parts of every noise
	// stream key, built once so that noise allocates nothing.
	noisePrefix string
	repKeys     []uint64
}

// benchInstruments are the runner's telemetry hooks; nil instruments
// (no registry configured) record nothing.
type benchInstruments struct {
	points     *obs.Counter
	solves     *obs.Counter
	placements *obs.Counter
	compBW     *obs.Histogram
	commBW     *obs.Histogram
}

// newBenchInstruments registers the runner's instruments (all nil when
// r is nil).
func newBenchInstruments(r *obs.Registry) benchInstruments {
	return benchInstruments{
		points:     r.Counter("memcontention_bench_points_total", "Benchmark points measured (one per core count per placement).", nil),
		solves:     r.Counter("memcontention_bench_solves_total", "Steady-state solver calls issued by the benchmark.", nil),
		placements: r.Counter("memcontention_bench_placements_total", "Placement sweeps completed.", nil),
		compBW:     r.Histogram("memcontention_bench_comp_bandwidth_gbps", "Measured parallel computation bandwidths.", obs.BandwidthBuckets(), nil),
		commBW:     r.Histogram("memcontention_bench_comm_bandwidth_gbps", "Measured parallel communication bandwidths.", obs.BandwidthBuckets(), nil),
	}
}

// NewRunner validates the configuration and builds the machine.
func NewRunner(cfg Config) (*Runner, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := cfg.Kernel.Validate(); err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	sys, err := memsys.New(cfg.Platform, cfg.Profile)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	r := &Runner{cfg: cfg, sys: sys, m: newBenchInstruments(cfg.Registry)}
	if cfg.Context != nil {
		r.done = cfg.Context.Done()
	}
	r.scope = scopeKey(cfg)
	r.cores = cfg.Platform.CoresOfSocket(0)
	r.noisePrefix = cfg.Platform.Name + "|" + cfg.Kernel.String() + "|"
	r.repKeys = make([]uint64, cfg.Repeats)
	for rep := range r.repKeys {
		r.repKeys[rep] = rng.Hash("rep" + strconv.Itoa(rep))
	}
	return r, nil
}

// scopeKey condenses everything that determines a benchmark result into a
// stable journal-key prefix. Two configurations share a scope exactly when
// they would produce bit-identical curves, so a resumed campaign can never
// replay results measured under different parameters. The profile is
// content-hashed rather than named because custom profiles may reuse a
// built-in platform's name.
func scopeKey(cfg Config) string {
	h := fnv.New64a()
	if data, err := json.Marshal(cfg.Profile); err == nil {
		h.Write(data)
	}
	return fmt.Sprintf("bench|%s|%s|seed=%d|rep=%d|msg=%d|bidir=%t|prof=%016x",
		cfg.Platform.Name, cfg.Kernel, cfg.Seed, cfg.Repeats, cfg.MessageSize, cfg.Bidirectional, h.Sum64())
}

// WithJournal attaches a checkpoint journal: RunPlacement returns the
// journaled curve for an already-completed placement without re-solving,
// and records each freshly measured curve durably before returning it.
// Determinism makes the cache transparent — a hit returns exactly what a
// re-measurement would. Nil (the default) disables checkpointing at zero
// cost. It returns the runner for chaining.
func (r *Runner) WithJournal(j *checkpoint.Journal) *Runner {
	r.journal = j
	return r
}

// Scope returns the runner's journal-key prefix (see scopeKey); campaign
// drivers extend it for derived artifacts such as evaluation tables.
func (r *Runner) Scope() string { return r.scope }

// canceled reports a pending cancellation (never true without a Context).
func (r *Runner) canceled() error {
	if r.done == nil {
		return nil
	}
	select {
	case <-r.done:
		return context.Cause(r.cfg.Context)
	default:
		return nil
	}
}

// Config returns the effective (defaulted) configuration.
func (r *Runner) Config() Config { return r.cfg }

// System returns the simulated machine.
func (r *Runner) System() *memsys.System { return r.sys }

// Registry returns the configured telemetry registry (nil when
// instrumentation is off); calibration and evaluation layers built on a
// runner inherit it.
func (r *Runner) Registry() *obs.Registry { return r.cfg.Registry }

// appendCommStreams appends the communication stream(s) for data on node
// to streams. IDs start above any compute stream id.
func (r *Runner) appendCommStreams(streams []memsys.Stream, node topology.NodeID) []memsys.Stream {
	streams = append(streams, memsys.Stream{
		ID:   1 << 20,
		Kind: memsys.KindComm,
		Node: node,
	})
	if r.cfg.Bidirectional {
		// Ping-pong: the NIC simultaneously reads outgoing data from
		// the same node (§VI future work).
		streams = append(streams, memsys.Stream{
			ID:   1<<20 + 1,
			Kind: memsys.KindComm,
			Node: node,
		})
	}
	return streams
}

// noise returns the averaged multiplicative noise factor for a metric. Its
// stream is keyed by the label "platform|kernel|comp@C/comm@M|n=N|metric",
// built in a stack buffer, and each repeat draws from the child keyed by
// "rep<i>".
func (r *Runner) noise(pl model.Placement, n int, metric string, rel float64) float64 {
	if rel <= 0 {
		return 1
	}
	var buf [128]byte
	label := append(buf[:0], r.noisePrefix...)
	label = append(label, "comp@"...)
	label = strconv.AppendInt(label, int64(pl.Comp), 10)
	label = append(label, "/comm@"...)
	label = strconv.AppendInt(label, int64(pl.Comm), 10)
	label = append(label, "|n="...)
	label = strconv.AppendInt(label, int64(n), 10)
	label = append(label, '|')
	label = append(label, metric...)
	s := rng.Keyed(r.cfg.Seed, rng.Hash(label))
	sum := 0.0
	for _, key := range r.repKeys {
		rep := s.DeriveKeyed(key)
		sum += rep.Jitter(rel)
	}
	return sum / float64(r.cfg.Repeats)
}

func (r *Runner) compNoiseRel() float64 {
	q := r.cfg.Profile.Quirks
	if q.ComputeNoiseRel > q.MeasureNoiseRel {
		return q.ComputeNoiseRel
	}
	return q.MeasureNoiseRel
}

func (r *Runner) commNoiseRel() float64 {
	q := r.cfg.Profile.Quirks
	if q.CommNoiseRel > q.MeasureNoiseRel {
		return q.CommNoiseRel
	}
	return q.MeasureNoiseRel
}

// pointMetrics names the noise streams of a point's four bandwidths.
type pointMetrics struct {
	compAlone, commAlone, compPar, commPar string
}

var (
	socketMetrics = pointMetrics{"comp_alone", "comm_alone", "comp_par", "comm_par"}
	mixedMetrics  = pointMetrics{"mixed_comp_alone", "mixed_comm_alone", "mixed_comp_par", "mixed_comm_par"}
)

// measure runs the three benchmark steps on cores running the kernel on
// node pl.Comp: computations alone, communications alone, both in
// parallel. what prefixes solver errors ("" or "mixed ").
func (r *Runner) measure(pl model.Placement, n int, cores []topology.CoreID, names pointMetrics, what string) (Point, error) {
	a := kernels.Assignment{Kernel: r.cfg.Kernel, Cores: cores, Node: pl.Comp}
	par, err := a.Streams(r.sys, 0)
	if err != nil {
		return Point{}, err
	}
	// One slice holds the parallel set; the alone sets are its compute
	// prefix and comm suffix.
	par = r.appendCommStreams(par, pl.Comm)
	comp, comm := par[:len(cores)], par[len(cores):]

	aloneComp, err := r.sys.Solve(comp)
	if err != nil {
		return Point{}, fmt.Errorf("bench: %scompute-alone solve: %w", what, err)
	}
	aloneComm, err := r.sys.Solve(comm)
	if err != nil {
		return Point{}, fmt.Errorf("bench: %scomm-alone solve: %w", what, err)
	}
	both, err := r.sys.Solve(par)
	if err != nil {
		return Point{}, fmt.Errorf("bench: %sparallel solve: %w", what, err)
	}
	return Point{
		N:         n,
		CompAlone: aloneComp.ComputeTotal * r.noise(pl, n, names.compAlone, r.compNoiseRel()),
		CommAlone: aloneComm.CommTotal * r.noise(pl, n, names.commAlone, r.commNoiseRel()),
		CompPar:   both.ComputeTotal * r.noise(pl, n, names.compPar, r.compNoiseRel()),
		CommPar:   both.CommTotal * r.noise(pl, n, names.commPar, r.commNoiseRel()),
	}, nil
}

// MeasurePoint runs the three benchmark steps for one core count, the
// computations on the first n cores of socket 0.
func (r *Runner) MeasurePoint(pl model.Placement, n int) (Point, error) {
	if n < 1 || n > len(r.cores) {
		return Point{}, fmt.Errorf("bench: n=%d out of range [1,%d]", n, len(r.cores))
	}
	pt, err := r.measure(pl, n, r.cores[:n], socketMetrics, "")
	if err != nil {
		return Point{}, err
	}
	r.m.points.Inc()
	r.m.solves.Add(3)
	r.m.compBW.Observe(pt.CompPar)
	r.m.commBW.Observe(pt.CommPar)
	return pt, nil
}

// RunPlacement sweeps n = 1..cores(socket 0) for one placement. With a
// journal attached (WithJournal) a placement completed by an earlier,
// interrupted run is returned from the journal instead of re-measured,
// and each fresh curve is journaled durably before being returned.
func (r *Runner) RunPlacement(pl model.Placement) (*Curve, error) {
	if int(pl.Comp) >= r.cfg.Platform.NNodes() || int(pl.Comm) >= r.cfg.Platform.NNodes() || pl.Comp < 0 || pl.Comm < 0 {
		return nil, fmt.Errorf("bench: placement %v out of range for %d nodes", pl, r.cfg.Platform.NNodes())
	}
	key := fmt.Sprintf("%s|pl=%s", r.scope, pl)
	if r.journal != nil {
		var cached Curve
		if ok, err := r.journal.Get(key, &cached); err != nil {
			return nil, fmt.Errorf("bench: journal entry %s: %w", key, err)
		} else if ok {
			return &cached, nil
		}
	}
	nMax := r.cfg.Platform.CoresPerSocket()
	curve := &Curve{
		Platform:  r.cfg.Platform.Name,
		Placement: pl,
		Kernel:    r.cfg.Kernel.String(),
		Points:    make([]Point, 0, nMax),
	}
	for n := 1; n <= nMax; n++ {
		if err := r.canceled(); err != nil {
			return nil, fmt.Errorf("bench: placement %v canceled: %w", pl, err)
		}
		pt, err := r.MeasurePoint(pl, n)
		if err != nil {
			return nil, err
		}
		curve.Points = append(curve.Points, pt)
	}
	r.m.placements.Inc()
	if err := r.journal.Record(key, curve); err != nil {
		return nil, fmt.Errorf("bench: journal %s: %w", key, err)
	}
	return curve, nil
}

// AllPlacements enumerates every (mcomp, mcomm) pair of the platform in
// row-major order (communication node major, matching the paper's figure
// layout: one row of subplots per communication placement).
func AllPlacements(plat *topology.Platform) []model.Placement {
	nodes := plat.NNodes()
	out := make([]model.Placement, 0, nodes*nodes)
	for comm := 0; comm < nodes; comm++ {
		for comp := 0; comp < nodes; comp++ {
			out = append(out, model.Placement{Comp: topology.NodeID(comp), Comm: topology.NodeID(comm)})
		}
	}
	return out
}

// SamplePlacements returns the two calibration placements of §IV-A2.
func SamplePlacements(plat *topology.Platform) (local, remote model.Placement) {
	m := topology.NodeID(plat.NodesPerSocket())
	return model.Placement{Comp: 0, Comm: 0}, model.Placement{Comp: m, Comm: m}
}

// SampleCurves picks the two calibration curves, in the order (local,
// remote), out of a sweep such as RunAll's.
func SampleCurves(plat *topology.Platform, curves []*Curve) (local, remote *Curve, err error) {
	lp, rp := SamplePlacements(plat)
	for _, c := range curves {
		switch c.Placement {
		case lp:
			local = c
		case rp:
			remote = c
		}
	}
	if local == nil || remote == nil {
		return nil, nil, fmt.Errorf("bench: sample placements %v/%v missing from sweep", lp, rp)
	}
	return local, remote, nil
}

// RunAll measures every placement combination.
func (r *Runner) RunAll() ([]*Curve, error) {
	placements := AllPlacements(r.cfg.Platform)
	curves := make([]*Curve, 0, len(placements))
	for _, pl := range placements {
		c, err := r.RunPlacement(pl)
		if err != nil {
			return nil, err
		}
		curves = append(curves, c)
	}
	return curves, nil
}

// RunSamples measures only the two calibration placements, in the order
// (local, remote).
func (r *Runner) RunSamples() (local, remote *Curve, err error) {
	lp, rp := SamplePlacements(r.cfg.Platform)
	if local, err = r.RunPlacement(lp); err != nil {
		return nil, nil, err
	}
	if remote, err = r.RunPlacement(rp); err != nil {
		return nil, nil, err
	}
	return local, remote, nil
}
