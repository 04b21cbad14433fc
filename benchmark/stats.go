package main

import (
	"math"
	"sort"
)

// sample is a list of timings (or any measurements) of one quantity.
type sample []float64

func (s sample) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) by linear interpolation between
// order statistics, with the position rule (n+1)·q that Python's
// statistics.quantiles uses by default — so the quartiles printed here are
// the ones the contract's spread check computes. An empty sample gives 0.
func (s sample) quantile(q float64) float64 {
	v := s.sorted()
	n := len(v)
	if n == 0 {
		return 0
	}
	pos := float64(n+1)*q - 1 // 0-based
	if pos <= 0 {
		return v[0]
	}
	if pos >= float64(n-1) {
		return v[n-1]
	}
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	return v[lo] + frac*(v[lo+1]-v[lo])
}

func (s sample) median() float64 { return s.quantile(0.5) }

// quartiles returns the first and third quartile.
func (s sample) quartiles() (q1, q3 float64) { return s.quantile(0.25), s.quantile(0.75) }

// spread is the interquartile distance as a share of the median — the
// repeatability measure of the contract.
func (s sample) spread() float64 {
	m := s.median()
	if m == 0 {
		return 0
	}
	q1, q3 := s.quartiles()
	return (q3 - q1) / math.Abs(m)
}

func (s sample) max() float64 {
	m := 0.0
	for i, v := range s {
		if i == 0 || v > m {
			m = v
		}
	}
	return m
}

func (s sample) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

// tailSamples is how many samples must lie beyond a reported percentile.
const tailSamples = 10

// tailQuantile picks the highest percentile, at most want, that still has at
// least tailSamples samples beyond it; with fewer than 2·tailSamples samples
// that is the median. It returns the percentile used.
func tailQuantile(n int, want float64) float64 {
	if n < 2*tailSamples {
		return 0.5
	}
	q := 1 - float64(tailSamples)/float64(n)
	if q > want {
		q = want
	}
	return q
}

// tail returns the tailQuantile value of the sample and the percentile used.
func (s sample) tail(want float64) (value, q float64) {
	q = tailQuantile(len(s), want)
	return s.quantile(q), q
}
