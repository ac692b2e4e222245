package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMeanMinMax(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5}
	if m := Mean(xs); !almost(m, 2.8) {
		t.Errorf("Mean = %v, want 2.8", m)
	}
	if v, i := Min(xs); v != 1 || i != 1 {
		t.Errorf("Min = (%v,%d), want (1,1) — first minimum wins", v, i)
	}
	if v, i := Max(xs); v != 5 || i != 4 {
		t.Errorf("Max = (%v,%d), want (5,4)", v, i)
	}
	if Mean(nil) != 0 {
		t.Error("Mean(nil) must be 0")
	}
	if _, i := Min(nil); i != -1 {
		t.Error("Min(nil) must report index -1")
	}
}

func TestMedianStdDev(t *testing.T) {
	if s := StdDev([]float64{2, 2, 2}); s != 0 {
		t.Errorf("StdDev constant = %v, want 0", s)
	}
	if s := StdDev([]float64{1, 3}); !almost(s, 1) {
		t.Errorf("StdDev{1,3} = %v, want 1", s)
	}
}

func TestMAPE(t *testing.T) {
	got, err := MAPE([]float64{10, 20}, []float64{9, 22})
	if err != nil {
		t.Fatal(err)
	}
	// (|10-9|/10 + |20-22|/20)/2 = (0.1+0.1)/2 = 10%
	if !almost(got, 10) {
		t.Errorf("MAPE = %v, want 10", got)
	}
	if _, err := MAPE([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch must error")
	}
	if _, err := MAPE(nil, nil); err == nil {
		t.Error("empty input must error")
	}
	// Zero actuals are skipped.
	got, err = MAPE([]float64{0, 10}, []float64{5, 10})
	if err != nil || got != 0 {
		t.Errorf("MAPE with zero actual = (%v,%v), want (0,nil)", got, err)
	}
	if _, err := MAPE([]float64{0}, []float64{5}); err == nil {
		t.Error("all-zero actuals must error")
	}
}

func TestMAPEProperties(t *testing.T) {
	perfect := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		for i := range vals {
			vals[i] = math.Abs(vals[i]) + 1 // positive actuals
		}
		got, err := MAPE(vals, vals)
		return err == nil && almost(got, 0)
	}
	if err := quick.Check(perfect, nil); err != nil {
		t.Error("MAPE(x,x) must be 0:", err)
	}
	scaleInvariant := func(a, p uint16) bool {
		actual := float64(a) + 1
		pred := float64(p) + 1
		e1, _ := MAPE([]float64{actual}, []float64{pred})
		e2, _ := MAPE([]float64{actual * 7}, []float64{pred * 7})
		return almost(e1, e2)
	}
	if err := quick.Check(scaleInvariant, nil); err != nil {
		t.Error("MAPE must be scale-invariant:", err)
	}
}

func TestArgmaxTolerant(t *testing.T) {
	// Plateau: 10, 50, 49.9, 50.1 — first within 0.5% of 50.1 is index 1.
	xs := []float64{10, 50, 49.9, 50.1}
	if i := ArgmaxTolerant(xs, 0.005); i != 1 {
		t.Errorf("ArgmaxTolerant = %d, want 1 (first plateau point)", i)
	}
	if i := ArgmaxTolerant(xs, 0); i != 3 {
		t.Errorf("ArgmaxTolerant(tol=0) = %d, want 3 (strict max)", i)
	}
	if ArgmaxTolerant(nil, 0.01) != -1 {
		t.Error("empty input must return -1")
	}
	// All non-positive values: strict argmax.
	if i := ArgmaxTolerant([]float64{-5, -1, -3}, 0.01); i != 1 {
		t.Errorf("ArgmaxTolerant(neg) = %d, want 1", i)
	}
}

func TestSlopeBetween(t *testing.T) {
	ys := []float64{0, 2, 4, 6}
	if s := SlopeBetween(ys, 0, 3); !almost(s, 2) {
		t.Errorf("SlopeBetween = %v, want 2", s)
	}
	if s := SlopeBetween(ys, 2, 2); s != 0 {
		t.Errorf("SlopeBetween same index = %v, want 0", s)
	}
	if s := SlopeBetween(ys, 3, 1); !almost(s, 2) {
		t.Errorf("SlopeBetween reversed = %v, want 2", s)
	}
}

func TestMovingAverage(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	got := MovingAverage(xs, 3)
	want := []float64{1.5, 2, 3, 4, 4.5}
	for i := range want {
		if !almost(got[i], want[i]) {
			t.Errorf("MovingAverage[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	got = MovingAverage(xs, 1)
	for i := range xs {
		if got[i] != xs[i] {
			t.Error("width 1 must copy")
		}
	}
}

func TestClampLerp(t *testing.T) {
	if Clamp(5, 0, 3) != 3 || Clamp(-1, 0, 3) != 0 || Clamp(2, 0, 3) != 2 {
		t.Error("Clamp broken")
	}
}

func TestSampleStdDev(t *testing.T) {
	if got := SampleStdDev(nil); got != 0 {
		t.Fatalf("SampleStdDev(nil) = %v", got)
	}
	if got := SampleStdDev([]float64{5}); got != 0 {
		t.Fatalf("SampleStdDev(single) = %v", got)
	}
	// {2, 4, 4, 4, 5, 5, 7, 9}: population stddev 2, sample variance
	// 32/7.
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	want := math.Sqrt(32.0 / 7.0)
	if got := SampleStdDev(xs); math.Abs(got-want) > 1e-12 {
		t.Fatalf("SampleStdDev = %v, want %v", got, want)
	}
	// Bessel correction: sample stddev strictly exceeds population
	// stddev for any non-constant sample.
	if SampleStdDev(xs) <= StdDev(xs) {
		t.Fatal("sample stddev not larger than population stddev")
	}
}

func TestMeanCI95(t *testing.T) {
	mean, half := MeanCI95([]float64{3})
	if mean != 3 || half != 0 {
		t.Fatalf("single sample CI = (%v, %v)", mean, half)
	}
	// Two samples: df=1, t=12.706; half = t * s / sqrt(2).
	mean, half = MeanCI95([]float64{1, 3})
	s := SampleStdDev([]float64{1, 3})
	want := 12.706 * s / math.Sqrt(2)
	if mean != 2 || math.Abs(half-want) > 1e-9 {
		t.Fatalf("CI95(1,3) = (%v, %v), want (2, %v)", mean, half, want)
	}
	// Constant samples have zero dispersion regardless of n.
	if _, half = MeanCI95([]float64{4, 4, 4, 4}); half != 0 {
		t.Fatalf("constant sample half-width = %v", half)
	}
	// Large n falls back to the normal critical value.
	big := make([]float64, 100)
	for i := range big {
		big[i] = float64(i % 2)
	}
	_, half = MeanCI95(big)
	want = 1.96 * SampleStdDev(big) / 10
	if math.Abs(half-want) > 1e-12 {
		t.Fatalf("large-n half-width = %v, want %v", half, want)
	}
	// More replications shrink the interval (same per-sample spread).
	_, h4 := MeanCI95([]float64{1, 3, 1, 3})
	_, h8 := MeanCI95([]float64{1, 3, 1, 3, 1, 3, 1, 3})
	if h8 >= h4 {
		t.Fatalf("CI did not shrink with replications: %v >= %v", h8, h4)
	}
}
