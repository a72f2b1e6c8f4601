package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: the helpers must sort
	}
	return xs
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n      int
		p      float64
		ok     bool
		value  float64
		beyond int
	}{
		{19, 50, false, 10, 9},
		{20, 50, true, 10, 10},
		{99, 50, true, 50, 49},
		{100, 90, true, 90, 10},
		{999, 90, true, 900, 99},
		{1000, 99, true, 990, 10},
		{10000, 99.9, true, 9990, 10},
	}
	for _, c := range cases {
		v, p, ok := tail(seq(c.n))
		if p != c.p || ok != c.ok || v != c.value {
			t.Errorf("n=%d: tail = %v at p%v (ok=%v), want %v at p%v (ok=%v)", c.n, v, p, ok, c.value, c.p, c.ok)
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > v {
				beyond++
			}
		}
		if beyond != c.beyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", c.n, beyond, c.beyond)
		}
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
	if got := percentile(seq(10), 50); got != 5 {
		t.Errorf("p50 of 1..10 = %v, want 5 (nearest rank)", got)
	}
}

func TestParseCPULine(t *testing.T) {
	steal, total, ok := parseCPULine("cpu  396604 0 38116 501124 2716 0 5286 9975 7 9")
	if !ok || steal != 9975 || total != 396604+38116+501124+2716+5286+9975 {
		t.Fatalf("parseCPULine = %d, %d, %v", steal, total, ok)
	}
	if _, _, ok := parseCPULine("cpu0 1 2 3"); ok {
		t.Fatal("accepted a short per-CPU line")
	}
}
