package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// The quantile rule: report the highest percentile that still has at
// least ten samples beyond it, never less than the median.
func TestQuantileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n        int
		p        float64
		want     float64
		wantUsed float64
	}{
		{100000, 99, 99000, 99},
		{1000, 99, 990, 99},  // exactly ten beyond
		{500, 99, 490, 98},   // p99 would rest on five: p98
		{300, 99, 290, 96.6}, // p96.67
		{1000, 50, 500, 50},
		{20, 99, 10, 50}, // never below the median
	} {
		v, used := quantile(seq(c.n), c.p)
		if v != c.want || used < c.wantUsed || used >= c.wantUsed+0.1 {
			t.Errorf("n=%d p%v: got %v (p%.2f), want %v (p%v)", c.n, c.p, v, used, c.want, c.wantUsed)
		}
	}
	for n := 21; n <= 3000; n++ {
		xs := seq(n)
		v, _ := quantile(xs, 99)
		beyond := n - int(v)
		if beyond < minBeyond {
			t.Fatalf("n=%d: p99 %v leaves %d samples beyond it", n, v, beyond)
		}
		if nearest := float64(int(0.99*float64(n) + 0.999999)); v != nearest && beyond != minBeyond {
			t.Fatalf("n=%d: p99 %v is neither the nearest rank %v nor the highest with ten beyond", n, v, nearest)
		}
	}
}
