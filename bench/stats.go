package main

import (
	"math"
	"sort"
)

// sample is a set of measurements of one quantity. Percentiles are
// reported together with the sample count, because a percentile with
// fewer than ten samples beyond it is not worth reading.
type sample []float64

func (s sample) sorted() sample {
	c := append(sample(nil), s...)
	sort.Float64s(c)
	return c
}

// percentile returns the p-th percentile (0..100) with linear
// interpolation between order statistics, and 0 for an empty sample.
func (s sample) percentile(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := s.sorted()
	pos := p / 100 * float64(len(c)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return c[lo] + (c[hi]-c[lo])*(pos-float64(lo))
}

func (s sample) median() float64 { return s.percentile(50) }

func (s sample) mean() float64 {
	var sum float64
	for _, v := range s {
		sum += v
	}
	return ratio(sum, float64(len(s)))
}

// quartiles returns the cut points Python's
// statistics.quantiles(values, n=4) gives (the default "exclusive"
// method), which is what the acceptance rule for this benchmark is
// written in. It needs at least two values.
func (s sample) quartiles() (q1, q2, q3 float64) {
	c := s.sorted()
	n := len(c)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (c[j-1]*(4-delta) + c[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the first and third quartile as a
// share of the median: the number compared with a metric's bound.
func (s sample) spread() float64 {
	q1, q2, q3 := s.quartiles()
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// maxPairwiseRel is the largest relative difference between any two
// values, relative to the smaller one.
func (s sample) maxPairwiseRel() float64 {
	c := s.sorted()
	if len(c) < 2 || c[0] == 0 {
		return 0
	}
	return (c[len(c)-1] - c[0]) / math.Abs(c[0])
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
