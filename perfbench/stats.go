package main

import (
	"math"
	"sort"
)

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no values.
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

// percentile returns the nearest-rank p-th percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	rank = min(max(rank, 1), len(sorted))
	return sorted[rank-1]
}

// inf is the latency of a failed or refused request.
var inf = math.Inf(1)

// tailLadder lists the percentiles the tail rule chooses from, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a percentile for it to
// be reported as the tail.
const minBeyond = 10

// tail applies the tail rule to latency samples: it returns the highest
// ladder percentile with at least minBeyond samples strictly above it,
// its value, and how many samples lie beyond. A failed or refused
// request is a +Inf sample, so it lies beyond every limit. With too few
// samples for any ladder percentile the median is returned with the
// count it has.
func tail(samples []float64) (pct, value float64, beyond int) {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	for _, p := range tailLadder {
		v := percentile(s, p)
		if n := len(s) - sort.Search(len(s), func(i int) bool { return s[i] > v }); n >= minBeyond {
			return p, v, n
		}
	}
	v := percentile(s, 50)
	return 50, v, len(s) - sort.Search(len(s), func(i int) bool { return s[i] > v })
}

// finite maps +Inf (a latency that missed every limit) to the largest
// float, which JSON can carry.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}
