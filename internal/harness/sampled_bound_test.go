package harness

import (
	"math"
	"testing"

	"cryptoarch/internal/ooo"
)

// TestSampledBoundStudentT pins the sampled run's reported error bound to
// the relative half-width of a two-sided 95% Student-t interval on the
// per-interval CPI mean, t(0.975, K-1)*sd/(sqrt(K)*mean), with the small-K
// quantile rather than a flat factor of 2.
func TestSampledBoundStudentT(t *testing.T) {
	for _, tc := range []struct {
		name string
		cpis []float64
		t    float64 // expected quantile for K-1 degrees of freedom
	}{
		{"K=1 reports no bound", []float64{1.5}, 0},
		{"K=2", []float64{1, 2}, 12.706},
		{"K=4", []float64{1, 2, 3, 4}, 3.182},
		{"K=8", []float64{1.1, 0.9, 1.0, 1.2, 0.8, 1.0, 1.05, 0.95}, 2.365},
		{"K=31", func() []float64 {
			c := make([]float64, 31)
			for i := range c {
				c[i] = 1 + float64(i%3)/10
			}
			return c
		}(), 2.042},
		{"zero spread", []float64{2, 2, 2, 2}, 3.182},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sum := &ooo.Stats{Instructions: 1000, Cycles: 1500}
			_, rep := extrapolate(sum, tc.cpis, 4000, ooo.FourWide)
			want := 0.0
			if k := len(tc.cpis); k >= 2 {
				var mean, ss float64
				for _, c := range tc.cpis {
					mean += c
				}
				mean /= float64(k)
				for _, c := range tc.cpis {
					ss += (c - mean) * (c - mean)
				}
				want = tc.t * math.Sqrt(ss/float64(k-1)) / (math.Sqrt(float64(k)) * mean)
			}
			if math.Abs(rep.RelErrBound-want) > 1e-3*want+1e-12 {
				t.Fatalf("RelErrBound = %.6f, want %.6f", rep.RelErrBound, want)
			}
		})
	}
}

// TestTQuantile95 checks the quantile table against published values of
// t(0.975, df), and that beyond the table the quantile is never below the
// exact value (the bound may be wide, never narrow).
func TestTQuantile95(t *testing.T) {
	for _, tc := range []struct {
		df    int
		exact float64
	}{
		{1, 12.706}, {3, 3.182}, {7, 2.365}, {10, 2.228}, {30, 2.042},
		{31, 2.040}, {40, 2.021}, {120, 1.980}, {1000, 1.962},
	} {
		got := tQuantile95(tc.df)
		if tc.df <= 30 && math.Abs(got-tc.exact) > 1e-3 {
			t.Errorf("tQuantile95(%d) = %.4f, want %.3f", tc.df, got, tc.exact)
		}
		if got < tc.exact-1e-3 || got > 1.05*tc.exact {
			t.Errorf("tQuantile95(%d) = %.4f, want within [%.3f, %.3f]", tc.df, got, tc.exact, 1.05*tc.exact)
		}
	}
	for df := 1; df < 40; df++ {
		if tQuantile95(df+1) > tQuantile95(df) {
			t.Fatalf("quantile increases at df=%d: %.4f then %.4f", df, tQuantile95(df), tQuantile95(df+1))
		}
	}
}
