package main

import "sort"

// median returns the middle of vs (mean of the two middles for an even
// count), or 0 for no values. vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := sorted(vs)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func sorted(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile of an ascending slice by linear
// interpolation between closest ranks.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// quartiles reproduces Python's statistics.quantiles(vs, n=4) (the default
// "exclusive" method), so the spreads this tool prints are the ones the
// acceptance driver computes. It needs at least two values.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := sorted(vs)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range of vs as a share of their median: the
// run-to-run noise a bound is judged against. Fewer than two values have
// no spread.
func spread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	q1, _, q3 := quartiles(vs)
	m := median(vs)
	if m == 0 {
		return 0
	}
	if m < 0 {
		m = -m
	}
	return (q3 - q1) / m
}
