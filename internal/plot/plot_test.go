package plot

import (
	"strings"
	"testing"
)

func TestRenderBasics(t *testing.T) {
	ch := New("test chart").
		Add(Series{Name: "measured", Y: []float64{1, 2, 3, 4, 5}, Marker: 'o'}).
		Add(Series{Name: "predicted", Y: []float64{1, 2, 3, 4, 4.5}, Marker: '+'})
	out := ch.Render()
	for _, want := range []string{"test chart", "o measured", "+ predicted", "└", "n=1", "n=5"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// Markers present on canvas.
	if !strings.Contains(out, "o") || !strings.Contains(out, "+") {
		t.Error("markers not drawn")
	}
}

func TestRenderEmpty(t *testing.T) {
	if out := New("empty").Render(); !strings.Contains(out, "no data") {
		t.Errorf("empty chart must say so: %q", out)
	}
	if out := New("zeros").Add(Series{Y: []float64{0, 0}}).Render(); !strings.Contains(out, "no data") {
		t.Errorf("all-zero chart must say so: %q", out)
	}
}

func TestRenderScale(t *testing.T) {
	// The axis label is the largest value across series plus headroom.
	out := New("scaled").Add(Series{Y: []float64{10, 20}}).Add(Series{Y: []float64{100}}).Render()
	if !strings.Contains(out, "105.0") { // 100 × 1.05 headroom
		t.Errorf("scale not taken from the largest value:\n%s", out)
	}
}

func TestMonotoneSeriesDrawsMonotone(t *testing.T) {
	// The marker of the max value must sit on a higher row than the min.
	out := New("").Add(Series{Y: []float64{1, 10}, Marker: 'x'}).Render()
	lines := strings.Split(out, "\n")
	firstRow, lastRow := -1, -1
	for i, l := range lines {
		if strings.Contains(l, "x") {
			if firstRow == -1 {
				firstRow = i
			}
			lastRow = i
		}
	}
	if firstRow == -1 || firstRow == lastRow {
		t.Fatalf("markers not found on distinct rows:\n%s", out)
	}
}

func TestTinyDimensionsClamped(t *testing.T) {
	ch := New("tiny")
	ch.Width, ch.Height = 1, 1
	out := ch.Add(Series{Y: []float64{1, 2, 3}}).Render()
	if !strings.Contains(out, "└") {
		t.Error("clamped chart must still render axes")
	}
}

func TestSingularPoint(t *testing.T) {
	out := New("one").Add(Series{Y: []float64{5}, Marker: '#'}).Render()
	if !strings.Contains(out, "#") {
		t.Error("single point must render")
	}
}
