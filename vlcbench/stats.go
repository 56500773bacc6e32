package main

import (
	"fmt"
	"math"
	"sort"
)

// percentile returns the q-th percentile (0 ≤ q ≤ 100) of xs by linear
// interpolation between closest ranks (the "inclusive" definition: the
// 0th is the minimum and the 100th the maximum). xs need not be sorted
// and is not modified. It returns NaN for an empty slice.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := q / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns the first and third quartiles by the "exclusive"
// method of Python's statistics.quantiles(xs, n=4), which is how the
// benchmark's run-to-run spread is judged. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64, err error) {
	n := len(xs)
	if n < 2 {
		return 0, 0, fmt.Errorf("quartiles need at least 2 values, got %d", n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// Python's integer arithmetic: rank i·(n+1)/4 on the 1-based scale,
	// the base rank clamped to [1, n-1] (so tiny samples extrapolate).
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3), nil
}

// spread is the interquartile range as a share of the median — the
// steadiness measure the benchmark's bounds are set against.
func spread(xs []float64) (float64, error) {
	q1, q3, err := quartiles(xs)
	if err != nil {
		return 0, err
	}
	m := median(xs)
	if m == 0 {
		return 0, fmt.Errorf("spread of values with median 0")
	}
	return (q3 - q1) / math.Abs(m), nil
}

// validName reports whether s is a legal metric or workload name: it
// starts with a letter or digit and is made of at most 64 letters,
// digits, '_', '.' and '-'.
func validName(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i, c := range s {
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if i == 0 && !alnum {
			return false
		}
		if !alnum && c != '_' && c != '.' && c != '-' {
			return false
		}
	}
	return true
}

// validUnit reports whether s is a legal unit: at most 16 letters,
// digits, '_', '/', '%', '.' and '-'.
func validUnit(s string) bool {
	if len(s) == 0 || len(s) > 16 {
		return false
	}
	for _, c := range s {
		ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			c == '_' || c == '/' || c == '%' || c == '.' || c == '-'
		if !ok {
			return false
		}
	}
	return true
}

// layerSumRatio is the frame budget's reconciliation: the per-frame sum
// of the layers' self times (traced run) over the untraced end-to-end
// frame time. A value near 1 means the layers account for the frame.
func layerSumRatio(layerSelfSum, untracedFrame float64) float64 {
	if untracedFrame <= 0 {
		return math.NaN()
	}
	return layerSelfSum / untracedFrame
}
