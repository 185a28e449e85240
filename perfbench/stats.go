package main

import (
	"fmt"

	"github.com/nwca/broadband/internal/stats"
)

// Tail is a high percentile reported with the sample count behind it.
type Tail struct {
	Q      float64 // the quantile reported, e.g. 0.99
	Value  float64
	N      int // samples
	Beyond int // samples strictly above the interpolation point
}

func (t Tail) String() string {
	return fmt.Sprintf("p%.4g=%.4g (n=%d, %d beyond)", 100*t.Q, t.Value, t.N, t.Beyond)
}

// tailQuantile picks the percentile to report for n samples: p99 when at
// least ten samples lie beyond it, otherwise the highest quantile that
// still leaves ten beyond. Below twenty samples no quantile above the
// median qualifies, and the median is reported.
func tailQuantile(n int) float64 {
	q := 1 - 10/float64(n)
	switch {
	case q > 0.99:
		return 0.99
	case q < 0.5:
		return 0.5
	}
	return q
}

// TailOf reports the tail percentile of xs under the ten-beyond rule,
// interpolated as stats.Quantile does (0 for no samples).
func TailOf(xs []float64) Tail {
	q := tailQuantile(len(xs))
	v, _ := stats.Quantile(xs, q)
	return Tail{Q: q, Value: v, N: len(xs), Beyond: len(xs) - 1 - int(q*float64(len(xs)-1))}
}

// median is stats.Median with an empty sample read as 0.
func median(xs []float64) float64 {
	m, _ := stats.Median(xs)
	return m
}
