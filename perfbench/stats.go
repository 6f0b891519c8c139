package main

import (
	"sort"
	"time"
)

// minBeyondTail is how many samples must lie beyond a reported tail
// percentile: a p90 needs at least 100 samples.
const minBeyondTail = 10

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is quantile for a tail percentile: it reports 0 unless at
// least minBeyondTail samples lie beyond q, so a tail is never read off
// a handful of samples.
func tailQuantile(xs []float64, q float64) float64 {
	if (1-q)*float64(len(xs)) < minBeyondTail {
		return 0
	}
	return quantile(xs, q)
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
