package main

import (
	"math"
	"sort"
)

// percentile returns the exact p-th percentile (0 < p <= 100) of sorted by
// the nearest-rank rule: the smallest sample with at least p% of the samples
// at or below it. sorted must be ascending; an empty slice yields 0.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// p99MinSamples is the least number of samples a reported p99 rests on:
// below it the percentile is its top handful of samples, i.e. noise.
const p99MinSamples = 1000

// series is one latency population, sorted once on first query.
type series struct {
	ns     []int64
	sorted bool
}

func (s *series) add(ns int64) { s.ns = append(s.ns, ns); s.sorted = false }

func (s *series) merge(o *series) { s.ns = append(s.ns, o.ns...); s.sorted = false }

func (s *series) n() int { return len(s.ns) }

func (s *series) sort() {
	if !s.sorted {
		sort.Slice(s.ns, func(i, j int) bool { return s.ns[i] < s.ns[j] })
		s.sorted = true
	}
}

// us returns the p-th percentile in microseconds.
func (s *series) us(p float64) float64 {
	s.sort()
	return float64(percentile(s.ns, p)) / 1e3
}

// meanUS returns the arithmetic mean in microseconds (0 when empty).
func (s *series) meanUS() float64 {
	if len(s.ns) == 0 {
		return 0
	}
	var sum int64
	for _, v := range s.ns {
		sum += v
	}
	return float64(sum) / float64(len(s.ns)) / 1e3
}

// median returns the middle value of vals (mean of the two middle values for
// an even count); vals is reordered.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	m := len(vals) / 2
	if len(vals)%2 == 1 {
		return vals[m]
	}
	return (vals[m-1] + vals[m]) / 2
}
