// Package obs is the repo's telemetry subsystem: a registry of typed
// instruments (counters, gauges, log-bucketed histograms), the causal
// span recorder interface, run manifests, and exporters rendering a
// registry as Prometheus text exposition format or as stable JSON.
//
// The package is dependency-free (standard library only) and designed so
// instrumentation is zero-cost when disabled: every method is safe on a
// nil receiver, and a nil *Registry hands out nil instruments whose
// operations are no-ops. Hot paths therefore hold instrument pointers
// unconditionally and never branch on "is telemetry on".
//
// Metric names follow the convention
//
//	memcontention_<pkg>_<name>_<unit>
//
// with units spelled out (_total for counters, _seconds, _gbps, _cores,
// _percent, _ratio). See docs/observability.md for the full catalogue.
//
// All instruments are safe for concurrent use: counters and gauges are
// lock-free atomics, histograms and the registry itself take a mutex.
// Exported values are deterministic — two identical simulation runs
// produce byte-identical exports — because the simulator itself is
// deterministic and no wall-clock quantity is ever recorded into a
// registry unless the caller explicitly chooses to.
package obs

import (
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"sync"
)

// L is a set of constant instrument labels (Prometheus-style key/value
// pairs). Instruments with the same name but different label sets are
// distinct series under one metric family.
type L map[string]string

var (
	nameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// instrumentKind discriminates the typed instruments.
type instrumentKind int

const (
	kindCounter instrumentKind = iota
	kindGauge
	kindHistogram
)

func (k instrumentKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("instrumentKind(%d)", int(k))
	}
}

// metric is one registered series.
type metric struct {
	name     string
	help     string
	kind     instrumentKind
	labels   L
	labelSig string // canonical sorted k="v" signature, "" when unlabelled

	counter   *Counter
	gauge     *Gauge
	histogram *Histogram
}

// metricKey identifies a series inside the registry.
type metricKey struct {
	name     string
	labelSig string
}

// Registry holds a process's instruments. The zero value is not usable;
// create registries with NewRegistry. A nil *Registry is a valid "telemetry
// off" registry: its getters return nil instruments and its exporters
// render an empty document.
type Registry struct {
	mu sync.Mutex
	// memlint:guard mu
	metrics map[metricKey]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[metricKey]*metric)}
}

// sortedKeys returns the label names in ascending order (nil when there
// are none).
func sortedKeys(labels L) []string {
	if len(labels) == 0 {
		return nil
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// labelSig builds the canonical label signature k1="v1",k2="v2" from the
// sorted label names.
func labelSig(keys []string, labels L) string {
	if len(keys) == 0 {
		return ""
	}
	var b []byte
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, k...)
		b = append(b, '=')
		b = strconv.AppendQuote(b, labels[k])
	}
	return string(b)
}

// lookup returns the series for (name, labels), creating it with mk when
// absent. Invalid names and kind mismatches are programming errors and
// panic.
func (r *Registry) lookup(name, help string, kind instrumentKind, labels L, mk func(*metric)) *metric {
	keys := sortedKeys(labels)
	key := metricKey{name: name, labelSig: labelSig(keys, labels)}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[key]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, m.kind))
		}
		return m
	}
	// Only a first registration validates the names: every series in the
	// map passed these checks, so a repeated lookup is a map hit.
	if !nameRe.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, k := range keys {
		if !labelRe.MatchString(k) {
			panic(fmt.Sprintf("obs: invalid label name %q", k))
		}
	}
	cp := make(L, len(labels))
	for k, v := range labels {
		cp[k] = v
	}
	m := &metric{name: name, help: help, kind: kind, labels: cp, labelSig: key.labelSig}
	mk(m)
	r.metrics[key] = m
	return m
}

// Counter returns (creating on first use) the counter series name{labels}.
// A nil registry returns a nil, no-op counter.
func (r *Registry) Counter(name, help string, labels L) *Counter {
	if r == nil {
		return nil
	}
	m := r.lookup(name, help, kindCounter, labels, func(m *metric) { m.counter = &Counter{} })
	return m.counter
}

// Gauge returns (creating on first use) the gauge series name{labels}.
// A nil registry returns a nil, no-op gauge.
func (r *Registry) Gauge(name, help string, labels L) *Gauge {
	if r == nil {
		return nil
	}
	m := r.lookup(name, help, kindGauge, labels, func(m *metric) { m.gauge = &Gauge{} })
	return m.gauge
}

// Histogram returns (creating on first use) the histogram series
// name{labels} with the given ascending bucket upper bounds (a +Inf
// overflow bucket is implicit). The buckets of the first registration win.
// A nil registry returns a nil, no-op histogram.
func (r *Registry) Histogram(name, help string, buckets []float64, labels L) *Histogram {
	if r == nil {
		return nil
	}
	m := r.lookup(name, help, kindHistogram, labels, func(m *metric) { m.histogram = newHistogram(buckets) })
	return m.histogram
}

// sortedMetrics returns the registered series sorted by (name, labelSig),
// the canonical export order.
func (r *Registry) sortedMetrics() []*metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		out = append(out, m)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].labelSig < out[j].labelSig
	})
	return out
}

// Len reports the number of registered series (0 for a nil registry).
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.metrics)
}
