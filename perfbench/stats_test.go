package main

import (
	"testing"
	"time"
)

// The reported tail is the highest percentile with at least ten samples
// beyond it, so p99 needs 1000 samples and is withheld below that.
func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false}, {99, 0, false}, {100, 90, true}, {999, 90, true},
		{1000, 99, true}, {9999, 99, true}, {10000, 99.9, true}, {1 << 20, 99.9, true},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func seq(n int) latencies {
	l := make(latencies, n)
	for i := range l {
		l[i] = int64(n - i) // descending, so summarize must sort
	}
	return l
}

func TestSummarizeWithholdsP99(t *testing.T) {
	s := seq(999).summarize()
	if _, ok := s.p99(); ok {
		t.Error("p99 reported from 999 samples")
	}
	if s.tailPct != 90 || s.tail != 900 || s.p50 != 500 || s.n != 999 {
		t.Errorf("summary of 1..999 = %+v", s)
	}
	s = seq(1000).summarize()
	if v, ok := s.p99(); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", v, ok)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	l := latencies{10, 20, 30, 40}
	for q, want := range map[float64]float64{0: 10, 0.25: 10, 0.5: 20, 0.75: 30, 0.76: 40, 1: 40} {
		if got := quantile(l, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
}

func TestTally(t *testing.T) {
	var a, b tally
	a.ok()
	a.ok()
	a.fail("wrong_bytes")
	b.fail("status_503")
	b.fail("wrong_bytes")
	b.ok()
	a.merge(b)
	if a.attempted != 6 || a.failed != 3 {
		t.Fatalf("attempted=%d failed=%d, want 6 and 3", a.attempted, a.failed)
	}
	if a.errorRatio() != 0.5 {
		t.Errorf("errorRatio = %v, want 0.5", a.errorRatio())
	}
	if got, want := a.String(), "attempted=6 failed=3 status_503=1 wrong_bytes=2"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	var empty tally
	if empty.errorRatio() != 0 {
		t.Error("an empty tally has a nonzero error ratio")
	}
}

func TestSeriesAndNormalize(t *testing.T) {
	var a, b series
	for i := 0; i < 3000; i++ {
		a.record(0, 10)
	}
	a.record(2, 20)
	b.record(1, 40)
	if len(a.units) != 3 || len(a.units[0]) != 3000 || len(a.units[1]) != 0 || cap(a.units[1]) < 3000 {
		t.Fatalf("units = %d, sizes %d/%d cap %d", len(a.units), len(a.units[0]), len(a.units[1]), cap(a.units[1]))
	}
	// Half the CPU time of unit 1 was stolen.
	p := &pass{
		units:  []time.Duration{time.Second, time.Second, time.Second},
		stolen: []float64{0, 0.5, 0},
	}
	raw, norm := p.normalize([]series{a, b})
	if len(raw) != 3002 || len(norm) != 3002 || norm[3000] != 40 {
		t.Fatalf("%d raw, %d corrected latencies; short ops must stay uncorrected (%d)", len(raw), len(norm), norm[3000])
	}
	p.long = true
	raw, norm = p.normalize([]series{a, b})
	if norm[0] != 10 || raw[3000] != 40 || norm[3000] != 20 || norm[3001] != 20 {
		t.Errorf("long-op latencies: first %d, unit 1 %d (raw %d), unit 2 %d", norm[0], norm[3000], raw[3000], norm[3001])
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}
