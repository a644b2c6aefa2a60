package main

import (
	"math"
	"slices"
)

// samples is a preallocated buffer of raw per-request values
// (nanoseconds). add never allocates: once the buffer is full, further
// values are counted as dropped, so a buffer sized too small shows up in
// the report instead of as GC load on the server sharing the process.
type samples struct {
	v       []int64
	dropped int
}

func newSamples(capacity int) samples { return samples{v: make([]int64, 0, capacity)} }

func (s *samples) add(x int64) {
	if len(s.v) < cap(s.v) {
		s.v = append(s.v, x)
		return
	}
	s.dropped++
}

// merge appends every value of o (allocates; not for the request path).
func (s *samples) merge(o *samples) {
	s.v = append(s.v, o.v...)
	s.dropped += o.dropped
}

// quantile returns the nearest-rank q-quantile of v (0 < q <= 1): the
// smallest value with at least ceil(q*n) values at or below it. v is
// sorted in place. An empty v returns 0.
func quantile(v []int64, q float64) int64 {
	if len(v) == 0 {
		return 0
	}
	slices.Sort(v)
	rank := int(math.Ceil(q * float64(len(v))))
	rank = min(max(rank, 1), len(v))
	return v[rank-1]
}

// mean returns the arithmetic mean of v (0 when empty).
func mean(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += float64(x)
	}
	return sum / float64(len(v))
}

// medianFloat returns the median of xs (sorted in place).
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// count is the number of values across windows.
func count(ws []samples) int {
	n := 0
	for i := range ws {
		n += len(ws[i].v)
	}
	return n
}

// minGroup is the fewest samples a quantile group may hold: a p99 then
// has at least ten samples beyond it.
const minGroup = 1000

// maxGroups bounds the groups windowed splits samples into.
const maxGroups = 10

// windowed is a robust q-quantile, in milliseconds, of samples kept in
// equal sub-windows: the windows are merged into the most groups (at
// most maxGroups, each a run of adjacent windows, dividing the windows
// evenly) that still hold minGroup samples each, and the median of the
// groups' quantiles is returned. A stall (a GC cycle, a preempted vCPU,
// a noisy neighbour) then moves the p99 of the groups it falls in rather
// than the run's. With too few samples for two groups it is the plain
// quantile of all of them; no samples give 0.
func windowed(ws []samples, q float64) float64 { return medianFloat(groupQuantiles(ws, q)) }

// groupQuantiles returns the q-quantile, in milliseconds, of each group
// windowed takes the median of.
func groupQuantiles(ws []samples, q float64) []float64 {
	n := count(ws)
	groups := 1
	for m := maxGroups; m > 1; m-- {
		if len(ws)%m == 0 && n/m >= minGroup {
			groups = m
			break
		}
	}
	per := len(ws) / groups
	var qs []float64
	for g := 0; g < groups; g++ {
		if v := pooled(ws[g*per : (g+1)*per]); len(v) > 0 {
			qs = append(qs, ms(quantile(v, q)))
		}
	}
	return qs
}

// pooled is every value across windows in one slice (allocates).
func pooled(ws []samples) []int64 {
	out := make([]int64, 0, count(ws))
	for i := range ws {
		out = append(out, ws[i].v...)
	}
	return out
}
