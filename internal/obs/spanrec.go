package obs

// SpanID identifies one causal span. IDs are allocated sequentially by
// whoever records the spans (a profiler, a span tree), so two identical
// simulation runs number their spans identically and span-bearing exports
// stay byte-deterministic. 0 is the nil span: "no parent" / "no span".
type SpanID int64

// SpanAttrs carries the resource attribution of a causal span: which
// machine and rank it belongs to, and — for memory-flow spans — which
// stream it tracks and which memory-system links that stream traverses.
// The zero value means "no attribution"; Rank uses -1 for "not a rank-
// scoped span" because rank 0 is a real rank.
type SpanAttrs struct {
	// Machine is the simulated machine id (0 for single-machine runs).
	Machine int
	// Rank is the MPI rank, or -1 when the span is not rank-scoped.
	Rank int
	// Flow is the flow id for flow spans (0 otherwise; real ids start
	// at 1).
	Flow int
	// Stream is the stream kind ("compute" or "comm") for flow and
	// transfer spans, "" otherwise.
	Stream string
	// Node is the NUMA node holding the span's data (flow/transfer
	// spans), -1 when not node-scoped.
	Node int
	// Links names the memory-system links the span's stream occupies
	// (e.g. "node0", "xlink", "pcie"), in traversal order.
	Links []string
}

// SpanRecorder receives causal span lifecycle events from the simulation
// layers: the engine's flow manager (memory flows), simnet (fabric
// transfers) and MPI (operations, barriers, compute phases, ranks). A nil
// SpanRecorder field means "spans off"; every producer guards with one
// nil check, so the unprofiled hot path stays allocation-free.
//
// Times are simulated seconds. Implementations must be deterministic:
// BeginSpan is required to hand out IDs purely by call order, which the
// cooperative engine makes reproducible.
type SpanRecorder interface {
	// BeginSpan opens a span under parent (0 = root) and returns its id.
	BeginSpan(parent SpanID, name, category string, at float64, attrs SpanAttrs) SpanID
	// EndSpan closes a span. Ending an unknown or already-ended span is
	// a no-op.
	EndSpan(id SpanID, at float64)
}
