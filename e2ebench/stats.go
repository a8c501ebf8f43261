package main

import (
	"math"
	"sort"
	"time"
)

// rank returns the 1-based nearest-rank position of the p-quantile
// (0 < p <= 1) among n sorted samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond is how many of n samples lie above the nearest-rank p-quantile.
func beyond(n int, p float64) int { return n - rank(n, p) }

// quantile returns the nearest-rank p-quantile of xs, sorting xs in place.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), p)-1]
}

// percentileLadder is the set of percentiles a timing may be reported at.
var percentileLadder = []float64{0.999, 0.99, 0.95, 0.9, 0.5}

// highestPercentile is the highest percentile of the ladder that has at
// least minBeyond of n samples beyond it, or 0 when none has.
func highestPercentile(n int) float64 {
	for _, p := range percentileLadder {
		if n > 0 && beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 0
}

// windowedQuantile splits xs, in completion order, into the most
// consecutive windows that each keep minBeyond samples beyond the
// p-quantile, and returns the median of the windows' quantiles. A burst
// of interference then moves one window, not the reported figure.
func windowedQuantile(xs []float64, p float64) float64 {
	need := 1
	for beyond(need, p) < minBeyond {
		need++
	}
	w := len(xs) / need
	if w <= 1 {
		return quantile(append([]float64(nil), xs...), p)
	}
	qs := make([]float64, w)
	for i := range qs {
		lo, hi := i*len(xs)/w, (i+1)*len(xs)/w
		qs[i] = quantile(append([]float64(nil), xs[lo:hi]...), p)
	}
	return quantile(qs, 0.5)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// interval is a half-open time span [start, end).
type interval struct{ start, end time.Time }

// unionLen is the total time the intervals cover, overlaps counted once.
func unionLen(ivs []interval) time.Duration {
	if len(ivs) == 0 {
		return 0
	}
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].start.Before(s[j].start) })
	var total time.Duration
	cur := s[0]
	for _, iv := range s[1:] {
		if !iv.start.After(cur.end) {
			if iv.end.After(cur.end) {
				cur.end = iv.end
			}
			continue
		}
		total += cur.end.Sub(cur.start)
		cur = iv
	}
	return total + cur.end.Sub(cur.start)
}

// selfTime is the span's duration minus the union of its children, each
// clipped to the span. Children that run in parallel are counted once.
func selfTime(parent interval, children []interval) time.Duration {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start.Before(parent.start) {
			c.start = parent.start
		}
		if c.end.After(parent.end) {
			c.end = parent.end
		}
		if c.end.After(c.start) {
			clipped = append(clipped, c)
		}
	}
	return parent.end.Sub(parent.start) - unionLen(clipped)
}
