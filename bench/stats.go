package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted values by linear
// interpolation between closest ranks. An empty slice yields 0.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

func maxOf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		m = math.Max(m, x)
	}
	return m
}

// A phase's samples are cut into equal runs before a percentile is taken and
// the median over the runs is reported: a stall that falls into a few runs
// cannot move it. There are as many runs as give each at least
// segmentSamples samples, between minSegments and maxSegments.
const (
	minSegments    = 5
	maxSegments    = 20
	segmentSamples = 250
)

func segmentCount(samples int) int {
	return min(maxSegments, max(minSegments, samples/segmentSamples))
}

// segmentQuantile cuts values (kept in due-time order) into segmentCount
// equal runs, takes the q-quantile of each and returns the median of those.
func segmentQuantile(values []float64, q float64) float64 {
	n := segmentCount(len(values))
	if len(values) < n {
		return quantile(sortedCopy(values), q)
	}
	per := make([]float64, n)
	for s := range per {
		per[s] = quantile(sortedCopy(values[len(values)*s/n:len(values)*(s+1)/n]), q)
	}
	return median(per)
}

// spread is the distance between the first and third quartile as a share of
// the median — Python's statistics.quantiles(values, n=4), which the
// benchmark's acceptance rule is written in.
func spread(values []float64) float64 {
	n := len(values)
	if n < 2 {
		return 0
	}
	s := sortedCopy(values)
	// The "exclusive" method: quartile i sits at position i*(n+1)/4 (1-based).
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	med := at(2)
	if med == 0 {
		return 0
	}
	return math.Abs((at(3) - at(1)) / med)
}
