package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// tailPercentiles are the candidates for a tail, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// rank is the nearest-rank position (1-based) of percentile p among n
// sorted samples. The small slack keeps decimal percentiles such as 99.9
// from rounding up past an exact rank.
func rank(p float64, n int) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// tailPercentile returns the highest candidate percentile that leaves at
// least ten of n samples beyond it. ok is false when even the median
// leaves fewer than ten.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailPercentiles {
		if n-rank(p, n) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank percentile p of the samples.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := slices.Clone(samples)
	sort.Float64s(s)
	return s[rank(p, len(s))-1]
}

func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := slices.Clone(samples)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// worsening is how much worse cand is than base for a metric, as a share
// of base: positive when cand is worse.
func worsening(m metricSpec, base, cand float64) float64 {
	if base == 0 {
		return 0
	}
	if m.better == "higher" {
		return (base - cand) / base
	}
	return (cand - base) / base
}

// boundsCheck compares the per-metric medians of two sets of runs and
// returns one line per end-to-end metric whose candidate median is worse
// than the base median by more than the metric's bound. Metrics missing
// from either side are reported too.
func boundsCheck(specs []metricSpec, base, cand map[string][]float64) []string {
	var bad []string
	for _, m := range specs {
		b, c := base[m.name], cand[m.name]
		if len(b) == 0 || len(c) == 0 {
			bad = append(bad, fmt.Sprintf("%s: missing (base %d runs, candidate %d runs)", m.name, len(b), len(c)))
			continue
		}
		mb, mc := median(b), median(c)
		if w := worsening(m, mb, mc); w > m.bound {
			bad = append(bad, fmt.Sprintf("%s: median %.4g -> %.4g %s is %.1f%% worse, bound %.0f%%",
				m.name, mb, mc, m.unit, 100*w, 100*m.bound))
		}
	}
	return bad
}
