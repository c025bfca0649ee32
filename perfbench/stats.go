package main

import (
	"math"
	"sort"
)

// tailPercentiles are the candidate tail percentiles, highest first. A run
// reports the highest one that still has at least minBeyond samples above
// it, so a tail figure is never read off a handful of samples.
var tailPercentiles = []float64{99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tailPercentile returns the highest candidate percentile with at least
// minBeyond of n samples beyond it, or 0 when even the median has fewer.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= minBeyond {
			return p
		}
	}
	return 0
}

// percentile returns the nearest-rank p-th percentile of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// latencySummary is a timing reported as its median and its tail, with the
// sample count and the tail percentile the count allows.
type latencySummary struct {
	Samples int
	P50     float64
	TailPct float64
	Tail    float64
}

// summarize sorts xs in place and summarizes it. With too few samples for
// any tail the tail is the maximum, at percentile 100.
func summarize(xs []float64) latencySummary {
	sort.Float64s(xs)
	s := latencySummary{Samples: len(xs), P50: percentile(xs, 50), TailPct: tailPercentile(len(xs))}
	if s.TailPct == 0 {
		s.TailPct = 100
	}
	s.Tail = percentile(xs, s.TailPct)
	return s
}

// tally counts attempted and failed items. An item fails on a transport
// error, a status outside 2xx (a 429 refusal included), or an output that
// fails its check.
type tally struct {
	attempted, failed int
}

// record counts one item; status is ignored when it is 0 (an in-process
// item with no HTTP exchange).
func (t *tally) record(status int, err error, outputOK bool) bool {
	t.attempted++
	ok := err == nil && outputOK && (status == 0 || status >= 200 && status < 300)
	if !ok {
		t.failed++
	}
	return ok
}

// add merges another tally into t.
func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
}

// failedRatio is failed over attempted items (0 before any attempt).
func (t tally) failedRatio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}
