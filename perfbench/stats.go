package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between order statistics (the "inclusive" method of
// Python's statistics.quantiles). xs need not be sorted; it is not
// modified. An empty sample has no quantile: NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentiles are the candidates summarize may report, highest first.
var tailPercentiles = []float64{99.9, 99, 90, 75, 50}

// tailPercentile returns the highest of tailPercentiles that leaves at
// least ten samples strictly beyond it — a percentile backed by fewer
// than ten observations above it is one outlier's opinion. ok is false
// when even the median has fewer than ten samples above it (n < 20).
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailPercentiles {
		// The samples beyond the p-th percentile are those ranked above
		// position p/100*(n-1) in sorted order.
		pos := p / 100 * float64(n-1)
		if n-1-int(math.Floor(pos)) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// summary is a timing distribution reduced to what the benchmark reports:
// the median, the highest percentile with at least ten samples beyond it,
// and the sample count.
type summary struct {
	N      int
	Median float64
	TailP  float64 // 0 when no percentile qualifies
	Tail   float64
}

func summarize(xs []float64) summary {
	s := summary{N: len(xs), Median: median(xs)}
	if p, ok := tailPercentile(len(xs)); ok {
		s.TailP, s.Tail = p, quantile(xs, p/100)
	}
	return s
}

func (s summary) String() string {
	if s.TailP == 0 {
		return fmt.Sprintf("median %.4g (n=%d, no percentile has 10 samples beyond it)", s.Median, s.N)
	}
	return fmt.Sprintf("median %.4g, p%g %.4g (n=%d)", s.Median, s.TailP, s.Tail, s.N)
}

// durations converts to float64 in the given unit.
func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}
