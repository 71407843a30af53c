package main

import (
	"math"
	"sort"
)

// tailLadder lists the percentiles the benchmark may report as "the tail",
// lowest first. The ladder stops at 99: the end-to-end metric is named
// p99_ms, and a run short enough to lose p99 falls back to p90 and says so.
var tailLadder = []float64{50, 90, 99}

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported (the choosing-metrics rule: a tail read off fewer samples is the
// value of one or two outliers, not a percentile).
const minBeyond = 10

// tailPercentile picks the highest percentile of the ladder that still has
// at least minBeyond samples beyond it among n samples. ok is false when
// even the median does not (n < 20).
func tailPercentile(n int) (p float64, ok bool) {
	for _, cand := range tailLadder {
		if float64(n)*(100-cand)/100 >= minBeyond {
			p, ok = cand, true
		}
	}
	return p, ok
}

// percentile returns the p-th percentile (0..100) of sorted by linear
// interpolation between closest ranks; sorted must be ascending and
// non-empty.
func percentile(sorted []float64, p float64) float64 {
	pos := p / 100 * float64(len(sorted)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// median returns the median of values (0 for none) without reordering them.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(values, n=4) (the default "exclusive" method) does,
// because that is what the acceptance driver computes spreads with. It
// needs at least two values.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	ld := len(s)
	cut := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise figure every bound in BENCHMARK.json is judged against.
func spread(values []float64) float64 {
	q1, q3 := quartiles(values)
	med := median(values)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}
