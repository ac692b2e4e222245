package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// End-to-end metric names. Every workload reports all six with tracing
// off; README.md says what "op" means in each workload.
const (
	mSetup   = "setup_s"
	mAlloc   = "alloc_kb_per_op"
	mOps     = "ops_per_s"
	mP50     = "op_p50_ms"
	mTail    = "op_tail_ms"
	mParOps  = "par_ops_per_s"
	unitS    = "s"
	unitMS   = "ms"
	unitKiB  = "KiB"
	unitRate = "1/s"
)

// entry is one reported metric with the context a reader needs to trust
// it: how many samples it rests on and which percentile it is.
type entry struct {
	name  string
	value float64
	unit  string
	note  string
}

// run is the state of one benchmark invocation: its settings, the
// metrics and failed checks it accumulates, and the scratch directory
// all files go to.
type run struct {
	workload  string
	seed      uint64
	seconds   float64
	traced    bool
	dir       string
	host      *hostMeter // nil: times are reported as measured
	entries   []entry
	attempted int64
	failed    int64
	problems  []string
	notes     []string
}

func (r *run) add(name string, value float64, unit, note string) {
	r.entries = append(r.entries, entry{name, value, unit, note})
}

// op counts one attempted operation; a non-nil error counts it failed
// and records the error as a failed check.
func (r *run) op(err error) bool {
	r.attempted++
	if err != nil {
		r.failed++
		r.problem("%v", err)
		return false
	}
	return true
}

// problem records a failed output check. Any problem makes the run
// incorrect: a wrong answer is never reported as a slow success.
func (r *run) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// budget is a share of the run's measured time.
func (r *run) budget(share float64) time.Duration {
	return time.Duration(share * r.seconds * float64(time.Second))
}

// scratch returns a fresh directory under the run's scratch root.
func (r *run) scratch(name string) (string, error) {
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(r.dir, name+"-")
}

func (r *run) correct() bool { return len(r.problems) == 0 && r.failed == 0 }

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

// print writes the human-readable report and, as the last line, the
// JSON result. The same report plus the machine record is kept under
// the scratch directory.
func (r *run) print(w io.Writer, m machine) error {
	var b strings.Builder
	mode := "end-to-end"
	if r.traced {
		mode = "traced"
	}
	fmt.Fprintf(&b, "perfbench %s run: workload=%s seed=%d seconds=%g\n", mode, r.workload, r.seed, r.seconds)
	fmt.Fprintf(&b, "machine: %s/%s, %s, nproc=%d GOMAXPROCS=%d, %s, scratch fs=%s\n",
		m.GOOS, m.GOARCH, m.CPU, m.NProc, m.GOMAXPROCS, m.Go, m.ScratchFS)
	for _, e := range r.entries {
		fmt.Fprintf(&b, "  %-38s %14.6g %-6s %s\n", e.name, e.value, e.unit, e.note)
	}
	if r.host != nil && len(r.host.samples) > 0 {
		r.note("%s", r.host.summary())
	}
	for _, n := range r.notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	ratio := 0.0
	if r.attempted > 0 {
		ratio = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(&b, "  attempted=%d failed=%d failed_ratio=%g\n", r.attempted, r.failed, ratio)
	for _, p := range r.problems {
		fmt.Fprintf(&b, "  FAILED CHECK: %s\n", p)
	}
	res := result{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]resultMetric{}}
	for _, e := range r.entries {
		res.Metrics[e.name] = resultMetric{Value: e.value, Unit: e.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	rec, err := json.MarshalIndent(struct {
		Workload string   `json:"workload"`
		Seed     uint64   `json:"seed"`
		Seconds  float64  `json:"seconds"`
		Traced   bool     `json:"traced"`
		Machine  machine  `json:"machine"`
		Result   result   `json:"result"`
		Notes    []string `json:"notes,omitempty"`
		Problems []string `json:"problems,omitempty"`
	}{r.workload, r.seed, r.seconds, r.traced, m, res, r.notes, r.problems}, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("result-%s-seed%d-trace%t.json", r.workload, r.seed, r.traced)
	if err := os.WriteFile(filepath.Join(r.dir, name), append(rec, '\n'), 0o644); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s%s\n", b.String(), line)
	return err
}

// machine records where a result was measured.
type machine struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	ScratchFS  string `json:"scratch_fs"`
}

func describeMachine(dir string) machine {
	m := machine{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPU: "unknown",
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		ScratchFS: fsType(dir),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

// fsType names the filesystem holding dir, so a journal on tmpfs is
// never mistaken for one on disk.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	default:
		return fmt.Sprintf("0x%x", uint64(st.Type))
	}
}

// quantile is the linearly interpolated q-quantile of xs (xs is not
// modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// latencies reports a latency distribution, sampled in blocks of the
// timed phase, as the workload's p50 (over all samples) and tail. The
// tail percentile is fixed per workload so that runs stay comparable.
// When every block holds at least ten samples and the blocks together
// hold at least ten beyond the percentile, the tail is the median of the
// block tails, so that a stall of the shared machine during a few blocks
// does not move it; otherwise it is pooled.
func (r *run) latencies(blocks [][]float64, tailQ float64, what string) {
	var all []float64
	fewest := math.MaxInt
	for _, b := range blocks {
		all = append(all, b...)
		fewest = min(fewest, len(b))
	}
	p50note := fmt.Sprintf("median %s, n=%d", what, len(all))
	if len(all) >= 1000 {
		p50note += fmt.Sprintf(" (pooled p99 %.4g ms)", quantile(all, 0.99))
	}
	r.add(mP50, median(all), unitMS, p50note)
	beyond := int(float64(len(all)) * (1 - tailQ))
	if len(blocks) > 1 && fewest >= 10 && beyond >= 10 {
		var tails []float64
		for _, b := range blocks {
			tails = append(tails, quantile(b, tailQ))
		}
		r.add(mTail, median(tails), unitMS, fmt.Sprintf("median over %d blocks of the block p%g %s, >= %d samples per block, %d beyond in all",
			len(blocks), 100*tailQ, what, fewest, beyond))
		return
	}
	note := fmt.Sprintf("p%g %s, n=%d, %d beyond", 100*tailQ, what, len(all), beyond)
	if beyond < 10 {
		note += " (fewer than 10 samples beyond: unreliable)"
	}
	r.add(mTail, quantile(all, tailQ), unitMS, note)
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// memStats returns the process's cumulative allocated bytes and objects.
func memStats() (bytes, objects uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc, ms.Mallocs
}

// allocMeter accumulates heap allocation over the timed phases of a
// workload.
type allocMeter struct {
	start, bytes uint64
}

func (a *allocMeter) begin() { a.start, _ = memStats() }
func (a *allocMeter) end()   { b, _ := memStats(); a.bytes += b - a.start }

func (r *run) allocPerOp(a allocMeter, ops int) {
	r.add(mAlloc, float64(a.bytes)/float64(ops)/1024, unitKiB, fmt.Sprintf("heap allocated in the timed phase / %d ops", ops))
}

// rateBlocks is how many blocks a throughput phase is split into.
const rateBlocks = 10

// rates collects the throughput of the blocks of a phase. A workload
// reports the median block, so that a stall of the shared machine
// during one block does not move the result.
type rates struct {
	ops    int
	xs     []float64 // at the reference host speed
	raw    []float64 // as measured
	scaled bool
}

// add records a block of ops operations at perSec per second while the
// host ran slow times slower than the reference.
func (b *rates) add(ops int, perSec, slow float64) {
	b.ops += ops
	b.raw = append(b.raw, perSec)
	b.xs = append(b.xs, perSec*slow)
	b.scaled = b.scaled || slow != 1
}

func (b *rates) median() float64 { return median(b.xs) }

func (b *rates) note(what string) string {
	n := fmt.Sprintf("%s, median of %d blocks, %d ops", what, len(b.xs), b.ops)
	if b.scaled {
		n += fmt.Sprintf(", at reference host speed (as measured: %.4g)", median(b.raw))
	}
	return n
}

// setupMedian repeats setup at least n times and for at least
// setupSpan, and reports the median wall time, scaled to the reference
// host speed when the workload has a hostMeter, so that a short stall
// of the shared machine does not move it.
func (r *run) setupMedian(n int, setup func() error) error {
	var ts, raw []float64
	first := time.Now()
	for len(ts) < n || time.Since(first) < setupSpan {
		d, slow, err := r.host.bracket(setup)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		raw = append(raw, d.Seconds())
		ts = append(ts, d.Seconds()/slow)
	}
	note := fmt.Sprintf("median of %d set-ups", len(ts))
	if r.host != nil {
		note += fmt.Sprintf(", at reference host speed (as measured: %.4g s)", median(raw))
	}
	r.add(mSetup, median(ts), unitS, note)
	return nil
}
