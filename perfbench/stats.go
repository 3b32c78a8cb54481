package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail
// percentile; with fewer, the tail is lowered to the highest percentile
// that still has them.
const minBeyond = 10

// tail returns the nearest-rank p-th percentile of sorted, lowered to the
// highest percentile with at least minBeyond samples beyond it, and the
// percentile it actually reports.
func tail(sorted []float64, p float64) (value, used float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	idx := int(math.Ceil(p/100*float64(n))) - 1
	if lim := n - 1 - minBeyond; idx > lim {
		idx = lim
	}
	if idx < 0 {
		idx = 0
	}
	return sorted[idx], 100 * float64(idx+1) / float64(n)
}

// median is the nearest-rank 50th percentile.
func median(sorted []float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[(len(sorted)-1)/2]
}

// sortedMs converts durations to sorted milliseconds.
func sortedMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	sort.Float64s(out)
	return out
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
