package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileIsExactNearestRank(t *testing.T) {
	ten := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	cases := []struct {
		name   string
		sorted []int64
		p      float64
		want   int64
	}{
		{"empty", nil, 50, 0},
		{"single", []int64{7}, 99, 7},
		{"p50 of ten", ten, 50, 50},  // rank ceil(5.0) = 5
		{"p51 of ten", ten, 51, 60},  // rank ceil(5.1) = 6
		{"p90 of ten", ten, 90, 90},  // rank 9
		{"p99 of ten", ten, 99, 100}, // rank ceil(9.9) = 10
		{"p100 of ten", ten, 100, 100},
		{"p1 of ten", ten, 1, 10}, // rank ceil(0.1) = 1
		{"p50 of four", []int64{1, 2, 3, 4}, 50, 2},
		{"p75 of four", []int64{1, 2, 3, 4}, 75, 3},
		{"p99 of duplicates", []int64{5, 5, 5, 9}, 99, 9},
	}
	for _, c := range cases {
		if got := percentile(c.sorted, c.p); got != c.want {
			t.Errorf("%s: percentile(%v, %v) = %d, want %d", c.name, c.sorted, c.p, got, c.want)
		}
	}
}

func TestSeriesSortsOnceAndReportsMicroseconds(t *testing.T) {
	var s series
	for _, ns := range []int64{3000, 1000, 2000, 4000} {
		s.add(ns)
	}
	if got := s.us(50); got != 2 {
		t.Errorf("p50 = %v µs, want 2", got)
	}
	if got := s.us(99); got != 4 {
		t.Errorf("p99 = %v µs, want 4", got)
	}
	if got := s.meanUS(); got != 2.5 {
		t.Errorf("mean = %v µs, want 2.5", got)
	}
	var o series
	o.add(500)
	s.merge(&o)
	if got, n := s.us(1), s.n(); got != 0.5 || n != 5 {
		t.Errorf("after merge: min %v µs over %d samples, want 0.5 over 5", got, n)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
}

// The reported numbers pool the fastest third of the slices (rounded up) and
// nothing else: a slice an outside burst slowed down does not reach them.
func TestQuietestPoolsTheFastestThird(t *testing.T) {
	mk := func(ops int64, ns ...int64) slice {
		sl := slice{ops: ops, wall: time.Second, headline: &series{}}
		for _, v := range ns {
			sl.headline.add(v)
		}
		return sl
	}
	// Seven slices: ceil(7/3) = 3 are kept — the ones at 100, 98 and 97 ops/s.
	q, floor := quietest([]slice{
		mk(60, 9000, 9000), mk(100, 1000, 2000), mk(40, 50000), mk(97, 3000),
		mk(98, 1500, 2500), mk(80, 7000), mk(96, 8000),
	})
	if q.ops != 295 || q.wall != 3*time.Second || floor != 97 {
		t.Errorf("pooled %d operations over %v down to %v ops/s, want 295 over 3s down to 97", q.ops, q.wall, floor)
	}
	if got := q.opsPerS(); math.Abs(got-295.0/3) > 1e-9 {
		t.Errorf("ops_per_s = %v, want %v", got, 295.0/3)
	}
	if n, p50, max := q.headline.n(), q.headline.us(50), q.headline.us(100); n != 5 || p50 != 2 || max != 3 {
		t.Errorf("pooled headline: %d samples, p50 %v µs, max %v µs; want 5, 2, 3", n, p50, max)
	}
	if one, _ := quietest([]slice{mk(10, 1000)}); one.ops != 10 || one.headline.n() != 1 {
		t.Errorf("a single slice must be kept whole, got %+v", one)
	}
}
