package main

import (
	"math"
	"testing"
)

func TestQuantiles(t *testing.T) {
	// Expected values are Python's statistics.median / statistics.quantiles(n=4).
	cases := []struct {
		in         sample
		median     float64
		q1, q3     float64
		spreadPerc float64
	}{
		{sample{1, 2, 3, 4, 5}, 3, 1.5, 4.5, 100},
		{sample{5, 1, 4, 2, 3}, 3, 1.5, 4.5, 100},
		{sample{1, 2, 3, 4}, 2.5, 1.25, 3.75, 100},
		{sample{10, 10, 10, 10, 10, 10, 10, 10, 10, 10}, 10, 10, 10, 0},
		{sample{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25, 100},
		{sample{2, 4, 4, 5, 7, 9, 11}, 5, 4, 9, 100},
	}
	for _, c := range cases {
		if got := c.in.median(); math.Abs(got-c.median) > 1e-12 {
			t.Errorf("median(%v) = %g, want %g", c.in, got, c.median)
		}
		q1, q3 := c.in.quartiles()
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.in, q1, q3, c.q1, c.q3)
		}
		if got := 100 * c.in.spread(); math.Abs(got-c.spreadPerc) > 1e-9 {
			t.Errorf("spread(%v) = %g%%, want %g%%", c.in, got, c.spreadPerc)
		}
	}
	if got := (sample{}).median(); got != 0 {
		t.Errorf("median of nothing = %g, want 0", got)
	}
	if got := (sample{7}).quantile(0.95); got != 7 {
		t.Errorf("p95 of one sample = %g, want 7", got)
	}
}

// TestTailRule pins "the highest percentile with at least ten samples beyond
// it": p95 needs 200 samples, fewer fall back, and below 20 it is the median.
func TestTailRule(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{5, 0.5}, {19, 0.5}, {20, 0.5}, {25, 0.6}, {40, 0.75}, {100, 0.9},
		{199, 1 - 10.0/199}, {200, 0.95}, {500, 0.95}, {10000, 0.95},
	}
	for _, c := range cases {
		q := tailQuantile(c.n, 0.95)
		if math.Abs(q-c.want) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %g, want %g", c.n, q, c.want)
		}
		if c.n >= 2*tailSamples {
			if beyond := float64(c.n) * (1 - q); beyond < tailSamples-1e-9 {
				t.Errorf("n=%d: only %g samples beyond the %gth percentile", c.n, beyond, 100*q)
			}
		}
	}
}
