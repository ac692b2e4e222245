// Package prof is the contention attribution profiler: it turns the raw
// event stream of a simulated run into causal spans (rank → MPI operation
// → fabric transfer → memory flow), per-link bandwidth-share timelines,
// and a critical-path report naming the chain of waits that bounds the
// makespan — the simulated counterpart of the interference analyses the
// paper's authors performed on their testbed traces.
//
// A Profiler is installed on a cluster (or a bare flow manager) as both
// the engine.FlowObserver and the obs.SpanRecorder; it funnels everything
// into one trace.Recorder so flow events and spans share a single
// time-ordered timeline that round-trips through the JSONL format. All
// analyses (Timeline, SpanTree) work on plain []trace.Event, so they run
// equally on a live recording or on a trace file loaded from disk.
package prof

import (
	"memcontention/internal/memsys"
	"memcontention/internal/obs"
	"memcontention/internal/trace"
)

// Profiler records causal spans and flow events into a trace.Recorder.
// It implements engine.FlowObserver, obs.SpanRecorder and the fault
// layer's Marker interface, so one Profiler is the only hook a cluster
// needs. Span ids are allocated sequentially in call order; with the
// deterministic engine two identical runs produce byte-identical traces.
type Profiler struct {
	rec  *trace.Recorder
	next obs.SpanID
}

// Attach creates a profiler recording into rec (nil allocates a fresh
// recorder). Sharing a recorder lets spans interleave with events other
// producers append.
func Attach(rec *trace.Recorder) *Profiler {
	if rec == nil {
		rec = trace.NewRecorder()
	}
	return &Profiler{rec: rec}
}

// Recorder returns the underlying recorder.
func (p *Profiler) Recorder() *trace.Recorder {
	if p == nil {
		return nil
	}
	return p.rec
}

// Events returns the recorded timeline.
func (p *Profiler) Events() []trace.Event {
	if p == nil {
		return nil
	}
	return p.rec.Events()
}

// BeginSpan implements obs.SpanRecorder.
func (p *Profiler) BeginSpan(parent obs.SpanID, name, category string, at float64, attrs obs.SpanAttrs) obs.SpanID {
	if p == nil {
		return 0
	}
	p.next++
	p.rec.Append(trace.Event{
		At: at, Kind: trace.SpanBegin,
		Span: p.next, Parent: parent,
		Label: name, Cat: category, Attrs: attrs,
	})
	return p.next
}

// EndSpan implements obs.SpanRecorder.
func (p *Profiler) EndSpan(id obs.SpanID, at float64) {
	if p == nil || id == 0 {
		return
	}
	p.rec.Append(trace.Event{At: at, Kind: trace.SpanEnd, Span: id})
}

// Instant records a point-in-time annotation attributed to span (0 for a
// free-standing instant) carrying resource attribution — e.g. "this wait
// was bound by the xlink".
func (p *Profiler) Instant(span obs.SpanID, name, category string, at float64, attrs obs.SpanAttrs) {
	if p == nil {
		return
	}
	p.rec.Append(trace.Event{
		At: at, Kind: trace.Instant,
		Span: span, Label: name, Cat: category, Attrs: attrs,
	})
}

// FlowStarted implements engine.FlowObserver.
func (p *Profiler) FlowStarted(machine, id int, stream memsys.Stream, bytes, at float64) {
	if p == nil {
		return
	}
	p.rec.FlowStarted(machine, id, stream, bytes, at)
}

// FlowFinished implements engine.FlowObserver.
func (p *Profiler) FlowFinished(machine, id int, at, avgRate float64) {
	if p == nil {
		return
	}
	p.rec.FlowFinished(machine, id, at, avgRate)
}

// RatesResolved implements engine.FlowObserver.
func (p *Profiler) RatesResolved(machine int, at float64, rates map[int]float64) {
	if p == nil {
		return
	}
	p.rec.RatesResolved(machine, at, rates)
}

// MarkAt records a user annotation.
func (p *Profiler) MarkAt(at float64, label string) {
	if p == nil {
		return
	}
	p.rec.MarkAt(at, label)
}

// FaultAt implements the fault layer's Marker interface.
func (p *Profiler) FaultAt(at float64, label string) {
	if p == nil {
		return
	}
	p.rec.FaultAt(at, label)
}

// CheckpointAt records a graceful-interruption marker.
func (p *Profiler) CheckpointAt(at float64, label string) {
	if p == nil {
		return
	}
	p.rec.CheckpointAt(at, label)
}

// Ingest replays a previously recorded stream (e.g. one campaign unit's
// span file on resume) and advances the span-id allocator past every span
// it contains, so spans recorded afterwards never collide with the
// stitched ones and the merged trace stays consistent.
func (p *Profiler) Ingest(events []trace.Event) {
	if p == nil {
		return
	}
	p.rec.Ingest(events)
	for _, ev := range events {
		if ev.Span > p.next {
			p.next = ev.Span
		}
	}
}
