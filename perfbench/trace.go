package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one operation share Op;
// Parent is the span that made the call (0 for an operation's root). A
// span may cover N identical calls when one call is too short to time
// on its own.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int    `json:"n"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so traced and untraced runs share one code path.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newOp returns a fresh operation id.
func (t *tracer) newOp() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now, N: 1})
	return len(t.spans)
}

// end closes span id, which covered n calls.
func (t *tracer) end(id, n int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].N = n
}

// do runs fn inside a one-call span.
func (t *tracer) do(name string, op, parent int, fn func(id int) error) error {
	id := t.begin(name, op, parent)
	err := fn(id)
	t.end(id, 1)
	return err
}

// finish computes every span's self time: its duration minus the part
// of it that its children cover (children may overlap when they run
// concurrently, so their union is subtracted).
func (t *tracer) finish() {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
}

// perCall returns the per-call durations (ns) of every span named name.
func (t *tracer) perCall(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/float64(s.N))
		}
	}
	return out
}

// meanNS is the mean per-call duration of the spans named name.
func (t *tracer) meanNS(name string) float64 {
	var total, calls int64
	for _, s := range t.spans {
		if s.Name == name {
			total += s.End - s.Start
			calls += int64(s.N)
		}
	}
	if calls == 0 {
		return 0
	}
	return float64(total) / float64(calls)
}

// totalNS is the summed duration of the spans named name.
func (t *tracer) totalNS(name string) float64 {
	var total int64
	for _, s := range t.spans {
		if s.Name == name {
			total += s.End - s.Start
		}
	}
	return float64(total)
}

// selfSummary renders calls, total and self time per span name, largest
// self time first.
func (t *tracer) selfSummary() string {
	type agg struct {
		name               string
		calls, total, self int64
	}
	by := map[string]*agg{}
	for _, s := range t.spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{name: s.Name}
			by[s.Name] = a
		}
		a.calls += int64(s.N)
		a.total += s.End - s.Start
		a.self += s.Self
	}
	list := make([]*agg, 0, len(by))
	for _, a := range by {
		list = append(list, a)
	}
	sort.Slice(list, func(i, j int) bool {
		return list[i].self > list[j].self || list[i].self == list[j].self && list[i].name < list[j].name
	})
	var b strings.Builder
	fmt.Fprintf(&b, "span self time (%d spans):", len(t.spans))
	for _, a := range list {
		fmt.Fprintf(&b, "\n    %-40s calls=%-8d total=%10.3fms self=%10.3fms", a.name, a.calls, float64(a.total)/1e6, float64(a.self)/1e6)
	}
	return b.String()
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
