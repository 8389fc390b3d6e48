package main

import (
	"fmt"
	"math"
	"sort"
)

// latencies collects one op's send-to-last-byte time per sample, in ns.
type latencies []int64

// summary is a latency distribution reduced to the numbers the report
// prints: the median, the tail percentile the sample count supports, and
// the count itself.
type summary struct {
	n       int
	p50     float64 // ns
	tailPct float64 // the reported tail percentile (e.g. 99), 0 when none
	tail    float64 // ns at tailPct
}

// tailPercentiles are the tail points the report may print, highest first.
var tailPercentiles = []float64{99.9, 99, 90}

// tailPercentile returns the highest percentile in tailPercentiles that
// leaves at least ten samples beyond it, so that a reported tail is never
// one or two outliers. ok is false when even p90 is unsupported (n < 100).
// p99 therefore needs at least 1000 samples.
func tailPercentile(n int) (pct float64, ok bool) {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p, true
		}
	}
	return 0, false
}

// quantile returns the q-quantile (0..1) of sorted by nearest rank.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

// summarize sorts l in place and reduces it.
func (l latencies) summarize() summary {
	sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
	s := summary{n: len(l), p50: quantile(l, 0.5)}
	if p, ok := tailPercentile(len(l)); ok {
		s.tailPct, s.tail = p, quantile(l, p/100)
	}
	return s
}

// p99 reports the 99th percentile when the samples support it.
func (s summary) p99() (float64, bool) {
	if s.tailPct >= 99 && s.n >= 1000 {
		return s.tail, true
	}
	return 0, false
}

// tally is the failure accounting of one pass: every op attempted counts
// once, and an op that failed, was refused, timed out or returned wrong
// bytes counts once more as failed, under the first reason seen.
type tally struct {
	attempted int64
	failed    int64
	reasons   map[string]int64
}

// ok records a correct op.
func (t *tally) ok() { t.attempted++ }

// fail records a failed op under reason.
func (t *tally) fail(reason string) {
	t.attempted++
	t.failed++
	if t.reasons == nil {
		t.reasons = map[string]int64{}
	}
	t.reasons[reason]++
}

// merge folds o into t.
func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for k, v := range o.reasons {
		if t.reasons == nil {
			t.reasons = map[string]int64{}
		}
		t.reasons[k] += v
	}
}

// errorRatio is failed ÷ attempted (0 when nothing was attempted).
func (t tally) errorRatio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// String lists the failure reasons in a stable order.
func (t tally) String() string {
	keys := make([]string, 0, len(t.reasons))
	for k := range t.reasons {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := fmt.Sprintf("attempted=%d failed=%d", t.attempted, t.failed)
	for _, k := range keys {
		s += fmt.Sprintf(" %s=%d", k, t.reasons[k])
	}
	return s
}

// median of a small float slice (sorted copy; NaN when empty).
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
