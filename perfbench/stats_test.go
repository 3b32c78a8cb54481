package main

import "testing"

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n          int
		p          float64
		want, used float64
	}{
		{n: 1000, p: 99, want: 990, used: 99},  // exactly 10 beyond: p99 stands
		{n: 2000, p: 99, want: 1980, used: 99}, // 20 beyond
		{n: 500, p: 99, want: 490, used: 98},   // p99 would leave 5: lowered to p98
		{n: 100, p: 50, want: 50, used: 50},    // a median is never lowered when supported
		{n: 15, p: 99, want: 5, used: 100.0 * 5 / 15},
		{n: 5, p: 99, want: 1, used: 20}, // too few for any tail: the minimum
	}
	for _, c := range cases {
		got, used := tail(seq(c.n), c.p)
		if got != c.want || used != c.used {
			t.Errorf("tail(1..%d, p%v) = %v (percentile %v), want %v (percentile %v)", c.n, c.p, got, used, c.want, c.used)
		}
		if c.n > 2*minBeyond {
			if beyond := c.n - int(got); beyond < minBeyond {
				t.Errorf("n=%d: only %d samples beyond the reported tail", c.n, beyond)
			}
		}
	}
	if v, used := tail(nil, 99); v != 0 || used != 0 {
		t.Errorf("tail of nothing = %v, %v", v, used)
	}
}

func TestMedianIsNearestRank(t *testing.T) {
	if got := median(seq(4)); got != 2 {
		t.Errorf("median(1..4) = %v, want 2", got)
	}
	if got := median(seq(5)); got != 3 {
		t.Errorf("median(1..5) = %v, want 3", got)
	}
}

func TestWindowStatsIgnoreOneDisturbedWindow(t *testing.T) {
	var w [windows][]float64
	for i := range w {
		w[i] = seq(2000)
	}
	w[2] = append(seq(1000), 1e6) // a stalled window
	p99, used := windowTail(w, 99)
	if p99 != 1980 || used != 99 {
		t.Errorf("windowTail = %v (percentile %v), want 1980 at p99", p99, used)
	}
	w[3] = nil // an empty window is skipped, not counted as zero
	if got := windowStat(w, median); got != 1000 {
		t.Errorf("windowStat(median) = %v, want 1000", got)
	}
}
