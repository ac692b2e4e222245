// Package unreachable is a memlint fixture for the unreachable check. As
// the only package of its module it is its own facade, so its exported
// API is a root; every unexported function must be reached from a root
// or be reported.
package unreachable

import (
	"encoding/json"
	"errors"
)

// Run is the facade entry point.
func Run() int {
	n := apply(double) // a function used only as a value
	var c counter
	bump := c.bump // a method value
	bump()
	var s shape = square{} // interface dispatch inside the module
	n += s.area()
	n += first([]int{1, 2}) // a generic function
	if errors.Is(errTimeout, errTimeout) {
		n++
	}
	return n + reachedAnyway()
}

func apply(fn func(int) int) int { return fn(1) }

func double(x int) int { return 2 * x }

type counter struct{ n int }

func (c *counter) bump() { c.n++ }

func (c *counter) reset() { c.n = 0 } // want "counter.reset is unreachable"

type shape interface{ area() int }

type square struct{}

func (square) area() int { return 4 }

// circle is never built, but its area matches the shape interface that
// Run dispatches through, so it is a candidate target.
type circle struct{}

func (circle) area() int { return 3 }

func first[T any](xs []T) T { return xs[0] }

// label's String implements fmt.Stringer: fmt calls it, nothing here does.
type label string

func (l label) String() string { return string(l) }

// point's MarshalJSON implements json.Marshaler.
type point struct{ x int }

func (p point) MarshalJSON() ([]byte, error) { return json.Marshal(p.x) }

// wrapErr is an error type; errors.Is and errors.As call Unwrap through
// an anonymous interface.
type wrapErr struct{ err error }

func (e *wrapErr) Error() string { return "wrapped: " + e.err.Error() }

func (e *wrapErr) Unwrap() error { return e.err }

// handle is unexported but exposed through Open's result, so its
// exported methods are API.
type handle struct{}

// Open exposes handle.
func Open() *handle { return &handle{} }

func (h *handle) Tune() int { return h.level() }

func (h *handle) level() int { return 1 }

func (h *handle) spare() {} // want "handle.spare is unreachable"

// Config exposes options through an exported field.
type Config struct {
	Opts  *options
	extra *hidden
}

type options struct{}

func (o *options) Level() int { return 2 }

// hidden sits behind an unexported field: not exposed.
type hidden struct{}

func (h *hidden) Level() int { return 3 } // want "hidden.Level is unreachable"

// A package-level var initializer is a root.
var errTimeout = newTimeout()

func newTimeout() error { return errors.New("timeout") }

func init() { setup() }

func setup() {}

// testOnly is kept for a test: the allowance consumes its finding and
// makes it a root, so helper needs no allowance of its own.
//
//memlint:allow unreachable — TestUnreachableFixture
func testOnly() int { return helper() }

func helper() int { return 1 }

// reachedAnyway is reached from Run, so its allowance is stale.
//
//memlint:allow unreachable — left over from when only tests called it // want "stale //memlint:allow unreachable"
func reachedAnyway() int { return 0 }

// deadA and deadB are a dead chain: deadA calls deadB, nothing calls
// deadA, and both are reported.
func deadA() { deadB() } // want "deadA is unreachable"

func deadB() {} // want "deadB is unreachable"
