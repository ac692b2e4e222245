package prof

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"memcontention/internal/trace"
	"memcontention/internal/units"
)

// FlowInfo is one flow's reconstructed life: identity, placement, the
// links it occupied, and both bandwidth accounts — the engine-reported
// lifetime average and the integral of the applied rates sampled at every
// rate change. On a complete timeline the two agree to float roundoff;
// the calibration tests pin them together to 1e-9.
type FlowInfo struct {
	Machine int
	ID      int
	// Kind is the stream kind ("compute" or "comm").
	Kind string
	// Node is the NUMA node holding the flow's data.
	Node int
	// Links are the memory-system links the flow occupied. Exact when the
	// trace carries flow spans (profiled runs); synthesised from kind and
	// node otherwise, in which case inter-socket links are unknown.
	Links []string
	// Bytes is the transfer size.
	Bytes float64
	// Start and End are simulated seconds; End is 0 while unfinished.
	Start, End float64
	Finished   bool
	// AvgRate is the engine-reported lifetime average, GB/s.
	AvgRate float64
	// MovedGB is the integral of the flow's applied rates over time, in
	// decimal gigabytes.
	MovedGB float64
}

// IntegralRate is the flow's average bandwidth computed from the rate
// timeline alone (GB/s), the cross-check against AvgRate.
func (fi *FlowInfo) IntegralRate() float64 {
	if !fi.Finished || fi.End <= fi.Start {
		return 0
	}
	return fi.MovedGB / (fi.End - fi.Start)
}

// Segment is one constant-rate interval on one machine: between From and
// To every listed flow ran at its given applied rate.
type Segment struct {
	Machine  int
	From, To float64
	Rates    []trace.FlowRate
}

// LinkUtil aggregates one memory-system link's traffic over the run,
// split by stream kind — the "who occupied this resource" account behind
// the contention attribution summary.
type LinkUtil struct {
	Machine int
	Link    string
	// ComputeGB and CommGB are decimal gigabytes moved across the link by
	// each stream kind.
	ComputeGB, CommGB float64
	// Busy is the time (seconds) the link carried any traffic.
	Busy float64
	// Peak is the highest aggregate rate observed on the link, GB/s.
	Peak float64
}

// TotalGB is the link's total traffic.
func (lu *LinkUtil) TotalGB() float64 { return lu.ComputeGB + lu.CommGB }

// Timeline is the bandwidth-share reconstruction of a recorded run: every
// flow's life and rate integral, and the piecewise-constant rate segments
// the fluid solver produced.
type Timeline struct {
	// Flows in deterministic (machine, id) order.
	Flows []*FlowInfo
	// Segments in event order (time order per machine).
	Segments []Segment
	// Makespan is the last event's time.
	Makespan float64

	flows map[flowKey]*FlowInfo
}

type flowKey struct{ machine, id int }

// BuildTimeline reconstructs the bandwidth-share timeline from a recorded
// event stream. It refuses truncated recordings: attribution on a
// timeline with dropped rate changes would silently under-count.
func BuildTimeline(events []trace.Event) (*Timeline, error) {
	tl := &Timeline{flows: make(map[flowKey]*FlowInfo)}
	cur := make(map[int][]trace.FlowRate) // machine → applied rates in force
	lastAt := make(map[int]float64)
	advance := func(machine int, to float64) {
		from := lastAt[machine]
		rates := cur[machine]
		if to > from && len(rates) > 0 {
			for _, fr := range rates {
				if fi := tl.flows[flowKey{machine, fr.Flow}]; fi != nil {
					fi.MovedGB += fr.GBps * (to - from)
				}
			}
			tl.Segments = append(tl.Segments, Segment{Machine: machine, From: from, To: to, Rates: rates})
		}
		lastAt[machine] = to
	}
	for i := range events {
		ev := &events[i]
		if ev.At > tl.Makespan {
			tl.Makespan = ev.At
		}
		switch ev.Kind {
		case trace.Mark:
			if ev.Label == trace.TruncatedLabel {
				return nil, fmt.Errorf("prof: trace is truncated (MaxEvents dropped rate changes); refusing bandwidth attribution")
			}
		case trace.FlowStart:
			advance(ev.Machine, ev.At)
			fi := &FlowInfo{
				Machine: ev.Machine,
				ID:      ev.FlowID,
				Kind:    ev.Stream.Kind.String(),
				Node:    int(ev.Stream.Node),
				Links:   synthLinks(ev.Stream.Kind.String(), int(ev.Stream.Node)),
				Bytes:   ev.Bytes,
				Start:   ev.At,
			}
			tl.flows[flowKey{ev.Machine, ev.FlowID}] = fi
			tl.Flows = append(tl.Flows, fi)
		case trace.FlowEnd:
			advance(ev.Machine, ev.At)
			if fi := tl.flows[flowKey{ev.Machine, ev.FlowID}]; fi != nil {
				fi.End, fi.Finished, fi.AvgRate = ev.At, true, ev.AvgRate
			}
			cur[ev.Machine] = dropRate(cur[ev.Machine], ev.FlowID)
		case trace.RateChange:
			advance(ev.Machine, ev.At)
			cur[ev.Machine] = ev.Rates
		case trace.SpanBegin:
			// Flow spans carry the solver's exact link attribution.
			if ev.Cat == "flow" && ev.Attrs.Flow > 0 {
				if fi := tl.flows[flowKey{ev.Attrs.Machine, ev.Attrs.Flow}]; fi != nil && len(ev.Attrs.Links) > 0 {
					fi.Links = ev.Attrs.Links
				}
			}
		}
	}
	sort.Slice(tl.Flows, func(i, j int) bool {
		a, b := tl.Flows[i], tl.Flows[j]
		if a.Machine != b.Machine {
			return a.Machine < b.Machine
		}
		return a.ID < b.ID
	})
	return tl, nil
}

// synthLinks derives a flow's links from its kind and node when the trace
// has no flow spans. Inter-socket (xlink) traversal cannot be inferred
// without the platform, so unprofiled traces under-attribute it.
func synthLinks(kind string, node int) []string {
	if kind == "comm" {
		return []string{"pcie", fmt.Sprintf("node%d", node)}
	}
	return []string{fmt.Sprintf("node%d", node)}
}

// dropRate returns rates without the given flow (copying, never mutating
// the shared slice).
func dropRate(rates []trace.FlowRate, flow int) []trace.FlowRate {
	for i := range rates {
		if rates[i].Flow == flow {
			out := make([]trace.FlowRate, 0, len(rates)-1)
			out = append(out, rates[:i]...)
			return append(out, rates[i+1:]...)
		}
	}
	return rates
}

// LinkUtilization aggregates traffic per memory-system link, in
// deterministic (machine, link) order.
func (tl *Timeline) LinkUtilization() []LinkUtil {
	type linkKey struct {
		machine int
		link    string
	}
	agg := make(map[linkKey]*LinkUtil)
	for _, seg := range tl.Segments {
		dt := seg.To - seg.From
		perLink := make(map[string]float64) // aggregate rate this segment
		for _, fr := range seg.Rates {
			fi := tl.flows[flowKey{seg.Machine, fr.Flow}]
			if fi == nil || fr.GBps <= 0 {
				continue
			}
			for _, link := range fi.Links {
				k := linkKey{seg.Machine, link}
				lu := agg[k]
				if lu == nil {
					lu = &LinkUtil{Machine: seg.Machine, Link: link}
					agg[k] = lu
				}
				if fi.Kind == "comm" {
					lu.CommGB += fr.GBps * dt
				} else {
					lu.ComputeGB += fr.GBps * dt
				}
				perLink[link] += fr.GBps
			}
		}
		for link, rate := range perLink {
			lu := agg[linkKey{seg.Machine, link}]
			lu.Busy += dt
			if rate > lu.Peak {
				lu.Peak = rate
			}
		}
	}
	out := make([]LinkUtil, 0, len(agg))
	for _, lu := range agg {
		out = append(out, *lu)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Machine != out[j].Machine {
			return out[i].Machine < out[j].Machine
		}
		return out[i].Link < out[j].Link
	})
	return out
}

// TopContended returns the n busiest links by total traffic (ties broken
// by machine then link name for determinism).
func (tl *Timeline) TopContended(n int) []LinkUtil {
	links := tl.LinkUtilization()
	sort.SliceStable(links, func(i, j int) bool {
		return links[i].TotalGB() > links[j].TotalGB()
	})
	if n > 0 && len(links) > n {
		links = links[:n]
	}
	return links
}

// ShareChart renders the per-link bandwidth-share timeline as text: one
// row per (machine, link), time bucketed into width columns. Each column
// shows what occupied the link: '=' compute only, '~' comm only, '#'
// both (contention), ' ' idle.
func (tl *Timeline) ShareChart(width int) string {
	if width < 10 {
		width = 10
	}
	if tl.Makespan <= 0 || len(tl.Segments) == 0 {
		return "(no rate segments)\n"
	}
	type row struct {
		machine int
		link    string
		comp    []float64
		comm    []float64
	}
	rows := make(map[string]*row)
	for _, seg := range tl.Segments {
		for _, fr := range seg.Rates {
			fi := tl.flows[flowKey{seg.Machine, fr.Flow}]
			if fi == nil || fr.GBps <= 0 {
				continue
			}
			for _, link := range fi.Links {
				key := fmt.Sprintf("m%d %s", seg.Machine, link)
				r := rows[key]
				if r == nil {
					r = &row{machine: seg.Machine, link: link, comp: make([]float64, width), comm: make([]float64, width)}
					rows[key] = r
				}
				lo := int(seg.From / tl.Makespan * float64(width))
				hi := int(seg.To / tl.Makespan * float64(width))
				if hi >= width {
					hi = width - 1
				}
				for b := lo; b <= hi; b++ {
					if fi.Kind == "comm" {
						r.comm[b] += fr.GBps
					} else {
						r.comp[b] += fr.GBps
					}
				}
			}
		}
	}
	keys := make([]string, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := rows[keys[i]], rows[keys[j]]
		if a.machine != b.machine {
			return a.machine < b.machine
		}
		return a.link < b.link
	})
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s |%s| (%.3f ms, '=' compute  '~' comm  '#' both)\n",
		"link", strings.Repeat("-", width), tl.Makespan*1e3)
	for _, k := range keys {
		r := rows[k]
		cells := make([]byte, width)
		for b := 0; b < width; b++ {
			switch {
			case r.comp[b] > 0 && r.comm[b] > 0:
				cells[b] = '#'
			case r.comp[b] > 0:
				cells[b] = '='
			case r.comm[b] > 0:
				cells[b] = '~'
			default:
				cells[b] = ' '
			}
		}
		fmt.Fprintf(&sb, "%-14s |%s|\n", k, cells)
	}
	return sb.String()
}

// FormatStreams renders the per-stream attribution summary: every flow
// with its placement, the links it occupied, and both bandwidth accounts
// — the engine's lifetime average next to the timeline integral, whose
// agreement (|Δ| ≤ 1e-9 relative) is the profiler's fidelity contract.
func FormatStreams(tl *Timeline) string {
	if len(tl.Flows) == 0 {
		return "(no flows)\n"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-4s %-5s %-8s %-4s %-18s %10s %12s %12s %10s\n",
		"mach", "flow", "stream", "node", "links", "bytes", "engine GB/s", "integral", "Δ rel")
	for _, fi := range tl.Flows {
		delta := 0.0
		if fi.AvgRate > 0 {
			delta = math.Abs(fi.IntegralRate()-fi.AvgRate) / fi.AvgRate
		}
		fmt.Fprintf(&sb, "%-4d %-5d %-8s %-4d %-18s %10s %12.6f %12.6f %10.2e\n",
			fi.Machine, fi.ID, fi.Kind, fi.Node, strings.Join(fi.Links, ","),
			units.ByteSize(fi.Bytes).String(), fi.AvgRate, fi.IntegralRate(), delta)
	}
	return sb.String()
}

// FormatUtilization renders the per-resource utilization table with the
// top contended links first.
func FormatUtilization(tl *Timeline) string {
	links := tl.TopContended(0)
	if len(links) == 0 {
		return "(no link traffic)\n"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-4s %-8s %12s %12s %12s %9s %10s\n",
		"mach", "link", "compute", "comm", "total", "busy", "peak")
	for _, lu := range links {
		busyPct := 0.0
		if tl.Makespan > 0 {
			busyPct = lu.Busy / tl.Makespan * 100
		}
		fmt.Fprintf(&sb, "%-4d %-8s %12s %12s %12s %8.1f%% %7.2f GB/s\n",
			lu.Machine, lu.Link,
			units.ByteSize(lu.ComputeGB*units.BytesPerGB).String(),
			units.ByteSize(lu.CommGB*units.BytesPerGB).String(),
			units.ByteSize(lu.TotalGB()*units.BytesPerGB).String(),
			busyPct, lu.Peak)
	}
	return sb.String()
}
