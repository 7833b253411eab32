package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples a reported percentile must leave above
// it: a tail figure resting on fewer is noise.
const minBeyond = 10

// rankIndex is the nearest-rank index of the q-quantile in a sorted
// sample of n values.
func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// quantile reads the nearest-rank q-quantile of an ascending sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rankIndex(len(sorted), q)]
}

// beyond counts the samples strictly above the q-quantile's rank.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankIndex(n, q)
}

// tailQuantile reads the q-quantile and refuses a sample that leaves
// fewer than minBeyond values above it.
func tailQuantile(sorted []float64, q float64) (float64, error) {
	if b := beyond(len(sorted), q); b < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, need %d", 100*q, len(sorted), b, minBeyond)
	}
	return quantile(sorted, q), nil
}

// highestPercentile returns the highest of the candidate quantiles
// that still leaves minBeyond samples above it (0 when none does).
func highestPercentile(n int) float64 {
	for _, q := range []float64{0.9999, 0.999, 0.99, 0.95, 0.9, 0.5} {
		if beyond(n, q) >= minBeyond {
			return q
		}
	}
	return 0
}

// sortedCopy returns xs in ascending order without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs (mean of the middle pair for even n).
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), so the
// comparator's spreads match the ones a reader computes by hand.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0]
	}
	m := n + 1
	at := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// windowSize is the sample count of one percentile window: enough for a
// p99 with more than ten samples beyond it.
const windowSize = 1200

// windowed splits samples, in the order they were taken, into
// consecutive windows of at least windowSize and returns the medians
// over windows of each window's p50, p90 and p99. A stall that hits one
// window moves one of the values the median is taken over, so the
// figures repeat from run to run; a slowdown that persists moves them
// all.
func windowed(lat []float64) (p50, p90, p99 float64, windows int, err error) {
	windows = len(lat) / windowSize
	if windows == 0 {
		return 0, 0, 0, 0, fmt.Errorf("%d samples fill no window of %d", len(lat), windowSize)
	}
	var w50, w90, w99 []float64
	for w := 0; w < windows; w++ {
		end := (w + 1) * windowSize
		if w == windows-1 {
			end = len(lat)
		}
		s := sortedCopy(lat[w*windowSize : end])
		q99, err := tailQuantile(s, 0.99)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		w50 = append(w50, quantile(s, 0.5))
		w90 = append(w90, quantile(s, 0.9))
		w99 = append(w99, q99)
	}
	return median(w50), median(w90), median(w99), windows, nil
}
