package main

import (
	"math"
	"sort"
	"time"
)

// latencies collects per-operation durations for percentile reporting.
type latencies []time.Duration

// pct is one reported percentile: its value, the number of samples it
// was taken from, and how many samples lie strictly above it. A
// percentile is trustworthy only with at least minBeyond samples above
// it.
type pct struct {
	Value   time.Duration
	Samples int
	Beyond  int
}

// minBeyond is the smallest number of samples that must lie beyond a
// reported percentile.
const minBeyond = 10

// Enough reports whether the percentile has minBeyond samples above it.
func (p pct) Enough() bool { return p.Beyond >= minBeyond }

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of the
// samples, with the sample count and the number of samples beyond it.
// An empty sample gives the zero pct.
func (l latencies) percentile(q float64) pct {
	if len(l) == 0 {
		return pct{}
	}
	s := append(latencies(nil), l...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	v := s[rank]
	beyond := len(s) - sort.Search(len(s), func(i int) bool { return s[i] > v })
	return pct{Value: v, Samples: len(s), Beyond: beyond}
}

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

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
