package main

import (
	"math"
	"testing"
)

func TestTailQuantileLeavesTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n int
		q float64
	}{
		{5000, 0.99}, {1000, 0.99}, {999, 1 - 10.0/999}, {500, 0.98}, {60, 1 - 10.0/60}, {20, 0.5}, {19, 0.5}, {1, 0.5},
	} {
		if got := tailQuantile(tc.n); math.Abs(got-tc.q) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %v, want %v", tc.n, got, tc.q)
		}
	}
	for n := 20; n <= 3000; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted input
		}
		tail := TailOf(xs)
		if tail.N != n || tail.Beyond < 10 {
			t.Fatalf("n=%d: %+v has fewer than 10 samples beyond", n, tail)
		}
		beyond := 0
		for _, x := range xs {
			if x > tail.Value {
				beyond++
			}
		}
		if beyond != tail.Beyond {
			t.Fatalf("n=%d: Beyond=%d but %d samples exceed %v", n, tail.Beyond, beyond, tail.Value)
		}
	}
}

func TestTailReportsP99WithItsSampleCount(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	tail := TailOf(xs)
	if tail.Q != 0.99 || math.Abs(tail.Value-990.01) > 1e-9 || tail.N != 1000 || tail.Beyond != 10 {
		t.Fatalf("TailOf(1..1000) = %+v, want p99 = 990.01 with n=1000 and 10 beyond", tail)
	}
	if s := tail.String(); s != "p99=990 (n=1000, 10 beyond)" {
		t.Errorf("String() = %q", s)
	}
}

func TestMedianReadsEmptyAsZero(t *testing.T) {
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median(nil) = %v, want 0", m)
	}
}
