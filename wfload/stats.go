package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a tail percentile for it
// to be reported: fewer, and the "p90" is one unlucky request.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of xs.
// An empty sample has no percentile.
func percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("percentile of an empty sample")
	}
	return sorted(xs)[rank(len(xs), p)-1], nil
}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// rank is the 1-based nearest rank of percentile p in n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	return max(1, min(n, r))
}

// tailPercentile is percentile for a tail (p > 50): it refuses a sample
// with fewer than minBeyond values above the rank.
func tailPercentile(xs []float64, p float64) (float64, error) {
	if n := len(xs); n-rank(n, p) < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", p, minBeyond, n-rank(n, p), n)
	}
	return percentile(xs, p)
}

// median of xs; the mean of the middle pair for an even count, as
// Python's statistics.median.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s, n := sorted(xs), len(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1, median and Q3 of xs the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), which is how
// run-to-run spread is judged.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := ld + 1
		j := max(1, min(ld-1, i*m/4))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// decileMeans returns the mean of the first and of the last tenth of xs,
// in their recorded order (at least one value each).
func decileMeans(xs []float64) (first, last float64) {
	k := max(1, len(xs)/10)
	if len(xs) == 0 {
		return 0, 0
	}
	return mean(xs[:k]), mean(xs[len(xs)-k:])
}
