package main

import (
	"math"
	"math/bits"
	"sort"
)

// percentile returns the p-quantile (0 ≤ p ≤ 1) of xs by linear
// interpolation between closest ranks.  xs is sorted in place.  An
// empty sample yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	if p <= 0 {
		return xs[0]
	}
	if p >= 1 {
		return xs[len(xs)-1]
	}
	pos := p * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(xs) {
		return xs[lo]
	}
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// median is percentile(xs, 0.5).
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// summary is what the result file records per metric: the shared
// header ROADMAP item 2 asks of every bench file.
type summary struct {
	Median float64 `json:"median"`
	Mean   float64 `json:"mean"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

// summarize folds one metric's per-repetition values.
func summarize(xs []float64, unit string) summary {
	if len(xs) == 0 {
		return summary{Unit: unit}
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	sum := 0.0
	for _, x := range cp {
		sum += x
	}
	return summary{Median: median(cp), Mean: sum / float64(len(cp)), Min: cp[0], Max: cp[len(cp)-1], N: len(cp), Unit: unit}
}

// spread is (max−min)/median, the repetition spread printed beside
// every median; 0 when the median is 0.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Max - s.Min) / math.Abs(s.Median)
}

// histogram is a log-bucket histogram of nanosecond durations: 8
// sub-buckets per power of two, so a reported quantile is within 9 %
// of the true one.  It is what traced spans aggregate into — fixed
// memory however long the run.  Not safe for concurrent use; the
// tracer gives each recording site its own and merges at the end.
type histogram struct {
	counts [64 * histSub]int64
	n      int64
	sum    int64
}

const histSub = 8

func histBucket(ns int64) int {
	if ns < histSub {
		if ns < 0 {
			ns = 0
		}
		return int(ns)
	}
	exp := bits.Len64(uint64(ns)) - 1 // ≥ 3
	sub := int(ns>>(uint(exp)-3)) & (histSub - 1)
	return (exp-2)*histSub + sub
}

// histLower is the smallest duration that lands in bucket b.
func histLower(b int) int64 {
	if b < histSub {
		return int64(b)
	}
	exp := b/histSub + 2
	sub := b % histSub
	return int64(histSub+sub) << (uint(exp) - 3)
}

func (h *histogram) observe(ns int64) {
	h.counts[histBucket(ns)]++
	h.n++
	h.sum += ns
}

func (h *histogram) merge(o *histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// quantile returns the midpoint of the bucket holding the p-quantile,
// in nanoseconds.
func (h *histogram) quantile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(p * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for b, c := range h.counts {
		seen += c
		if seen >= rank {
			lo, hi := histLower(b), histLower(b+1)
			return float64(lo+hi-1) / 2
		}
	}
	return float64(histLower(len(h.counts) - 1))
}
