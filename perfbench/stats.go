package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile: a p99 read off fewer than ten tail samples is one or two
// outliers, not a distribution.
const minBeyond = 10

// percentile returns the p-th percentile (0 < p < 100) of samples by
// the nearest-rank rule. It refuses a percentile with fewer than
// minBeyond samples above it. samples is sorted in place.
func percentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	if n == 0 || p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile p%g of %d samples: out of range", p, n)
	}
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("percentile p%g of %d samples: only %d beyond it, need %d", p, n, beyond, minBeyond)
	}
	sort.Float64s(samples)
	return samples[rank-1], nil
}

// median returns the middle value of samples (the mean of the two
// middle values for an even count); samples is sorted in place.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	sort.Float64s(samples)
	if n%2 == 1 {
		return samples[n/2]
	}
	return (samples[n/2-1] + samples[n/2]) / 2
}

// ratio is num/den, or 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
