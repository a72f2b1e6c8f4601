package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles the tail metric chooses from.
// Decade steps keep the chosen rung stable when the sample count
// varies a little between runs.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rank is the nearest-rank position (1-based) of percentile p in n
// sorted samples.
func rank(p float64, n int) int {
	// The epsilon keeps float error (99.9% of 10000 = 9990.000000000002)
	// from pushing an exact rank up by one.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile is the nearest-rank percentile p of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(p, len(s))-1]
}

// tailPercentile picks the highest ladder percentile that leaves at
// least ten samples beyond it. ok is false when even the median leaves
// fewer than ten (fewer than 20 samples); the median is returned then.
func tailPercentile(n int) (p float64, ok bool) {
	p = tailLadder[0]
	for _, q := range tailLadder {
		if n-rank(q, n) < 10 {
			break
		}
		p, ok = q, true
	}
	return p, ok
}

// tail reports the tail latency of xs under the ladder rule, with the
// percentile chosen.
func tail(xs []float64) (v, p float64, ok bool) {
	p, ok = tailPercentile(len(xs))
	return percentile(xs, p), p, ok
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
