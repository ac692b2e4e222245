// Command perfbench is the repository benchmark. It drives the
// simulator's public entry points through four workloads — paper,
// campaign, serve and stencil — checks every output against an
// independent path, and prints the metrics by name with their units.
// The last line of its output is one JSON result object.
//
//	perfbench --workload paper --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// runs the traced layer suite and prints the per-layer metrics. Every
// input derives from --seed. README.md lists the metrics and which
// layer change should move which of them.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// workload is one benchmark workload. setup is repeated to time it;
// measure runs the timed phases and checks; loop runs the primary
// operation for d with an optional tracer, to price the benchmark's
// own tracing; close releases what setup built.
type workload interface {
	setup(r *run) error
	measure(r *run) error
	loop(r *run, tr *tracer, d time.Duration) (ops int, err error)
	close()
}

var workloads = map[string]func() workload{
	"paper":    func() workload { return &paperWL{} },
	"campaign": func() workload { return &campaignWL{} },
	"serve":    func() workload { return &serveWL{} },
	"stencil":  func() workload { return &stencilWL{} },
}

// cpuBound names the workloads whose time metrics are scaled to the
// reference host speed (see hostMeter). campaign waits on fsync and
// serve on thread wake-ups, which a CPU probe does not track, so their
// times are reported as measured.
var cpuBound = map[string]bool{"paper": true, "stencil": true}

// seedBlock separates the derived seeds of different workload seeds:
// workload seed s uses simulator seeds s*seedBlock+1 onwards.
const seedBlock = 100_000

func main() { os.Exit(run1(os.Args[1:], os.Stdout, os.Stderr)) }

func run1(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "paper, campaign, serve or stencil")
	seed := fs.Uint64("seed", 1, "workload seed; every input derives from it")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 runs the traced layer suite and prints the per-layer metrics")
	dir := fs.String("dir", filepath.Join(".bench_build", "perfbench"), "scratch directory for journals, spans and result records")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload paper|campaign|serve|stencil, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	abs, err := filepath.Abs(*dir)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	r := &run{workload: *name, seed: *seed, seconds: *seconds, traced: *trace == 1, dir: abs}
	if cpuBound[*name] && !r.traced {
		r.host = &hostMeter{}
	}
	w := mk()
	if r.traced {
		err = tracedRun(r, w)
	} else {
		err = endToEnd(r, w)
	}
	w.close()
	if err != nil {
		for _, n := range r.notes {
			fmt.Fprintf(stderr, "perfbench: note: %s\n", n)
		}
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", r.workload, err)
		return 1
	}
	if err := r.print(stdout, describeMachine(abs)); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !r.correct() {
		return 1
	}
	return 0
}

// Set-up runs at least setupRepeats times and for at least setupSpan;
// setup_s is the median.
const (
	setupRepeats = 5
	setupSpan    = 2 * time.Second
)

func endToEnd(r *run, w workload) error {
	if err := r.setupMedian(setupRepeats, func() error { return w.setup(r) }); err != nil {
		return err
	}
	return w.measure(r)
}

// tracedRun prints the per-layer metrics: the price of the benchmark's
// own spans on this workload's primary operation, then the layer suite,
// which is the same fixed, seeded work for every workload so that its
// counts repeat exactly.
func tracedRun(r *run, w workload) error {
	if err := w.setup(r); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	// Alternate untraced and traced blocks so that drift on a shared
	// machine hits both sides alike.
	block := r.budget(0.1)
	var plain, traced []float64
	spans := newTracer()
	for i := 0; i < 4; i++ {
		for _, tr := range []*tracer{nil, spans} {
			t := time.Now()
			n, err := w.loop(r, tr, block)
			if err != nil {
				return err
			}
			per := float64(time.Since(t)) / float64(n)
			if tr == nil {
				plain = append(plain, per)
			} else {
				traced = append(traced, per)
			}
		}
	}
	r.add("obs.tracing_overhead", median(traced)/median(plain), "ratio",
		fmt.Sprintf("%s primary op, traced / untraced time per op, median of 4 blocks each", r.workload))
	if err := layerSuite(r, spans); err != nil {
		return err
	}
	spans.finish()
	r.note("%s", spans.selfSummary())
	path := filepath.Join(r.dir, fmt.Sprintf("spans-%s-seed%d.jsonl", r.workload, r.seed))
	if err := spans.write(path); err != nil {
		return err
	}
	r.note("spans written to %s", path)
	return nil
}
