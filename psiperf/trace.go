package main

import (
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
)

// The traced run decorates the serving index from the benchmark's own
// files: a core.Index wrapper around the Sharded handed to the server
// and, through the Sharded New factory, around each SPaC-H child. Each
// call into a wrapped method records one span into a preallocated slab
// (no allocation, no lock: one atomic claim per span); the spans are
// read out after the run.

type layer uint8

const (
	layerShard layer = iota
	layerTree
)

type spanKind uint8

const (
	kindBatchDiff spanKind = iota
	kindKNN
	kindRangeList
	kindBuild
)

// span is one call into a decorated index.
type span struct {
	start, end int64 // ns after the tracer's base
	n          int32 // points applied (BatchDiff/Build) or returned (queries)
	layer      layer
	kind       spanKind
}

// tracer owns one node's span slab.
type tracer struct {
	base    time.Time
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{base: time.Now(), spans: make([]span, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) record(l layer, k spanKind, start int64, n int) {
	end := t.now()
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return
	}
	t.spans[i] = span{start: start, end: end, n: int32(n), layer: l, kind: k}
}

// recorded returns the spans recorded so far. Call it only once the
// decorated stack is quiet.
func (t *tracer) recorded() []span {
	return t.spans[:min(t.next.Load(), int64(len(t.spans)))]
}

// wrap decorates idx. The wrapper forwards core.Replicator when idx
// implements it, with replicas decorated too: service.NewDurable enables
// snapshot reads only for a Replicator, and a wrapper that hid it would
// make the traced run measure the locked-read program instead.
func (t *tracer) wrap(idx core.Index, l layer) core.Index {
	ti := &tracedIndex{Index: idx, t: t, l: l}
	if _, ok := idx.(core.Replicator); ok {
		return &tracedReplicator{ti}
	}
	return ti
}

type tracedIndex struct {
	core.Index
	t *tracer
	l layer
}

type tracedReplicator struct{ *tracedIndex }

func (r *tracedReplicator) NewReplica() core.Index {
	return r.t.wrap(r.Index.(core.Replicator).NewReplica(), r.l)
}

func (x *tracedIndex) Build(pts []geom.Point) {
	s := x.t.now()
	x.Index.Build(pts)
	x.t.record(x.l, kindBuild, s, len(pts))
}

func (x *tracedIndex) BatchDiff(ins, del []geom.Point) {
	s := x.t.now()
	x.Index.BatchDiff(ins, del)
	x.t.record(x.l, kindBatchDiff, s, len(ins)+len(del))
}

func (x *tracedIndex) BatchInsert(pts []geom.Point) {
	s := x.t.now()
	x.Index.BatchInsert(pts)
	x.t.record(x.l, kindBatchDiff, s, len(pts))
}

func (x *tracedIndex) BatchDelete(pts []geom.Point) {
	s := x.t.now()
	x.Index.BatchDelete(pts)
	x.t.record(x.l, kindBatchDiff, s, len(pts))
}

func (x *tracedIndex) KNN(q geom.Point, k int, dst []geom.Point) []geom.Point {
	s := x.t.now()
	n0 := len(dst)
	dst = x.Index.KNN(q, k, dst)
	x.t.record(x.l, kindKNN, s, len(dst)-n0)
	return dst
}

func (x *tracedIndex) RangeList(box geom.Box, dst []geom.Point) []geom.Point {
	s := x.t.now()
	n0 := len(dst)
	dst = x.Index.RangeList(box, dst)
	x.t.record(x.l, kindRangeList, s, len(dst)-n0)
	return dst
}

// spanStats summarises the spans of one layer and kind that started in
// [from, to).
type spanStats struct {
	count   int
	durSum  int64
	nSum    int64
	matched []span
}

func (t *tracer) filter(l layer, k spanKind, from, to int64) spanStats {
	var st spanStats
	for _, s := range t.recorded() {
		if s.layer != l || s.kind != k || s.start < from || s.start >= to {
			continue
		}
		st.count++
		st.durSum += s.end - s.start
		st.nSum += int64(s.n)
		st.matched = append(st.matched, s)
	}
	return st
}

func (st spanStats) meanDur() float64 {
	if st.count == 0 {
		return 0
	}
	return float64(st.durSum) / float64(st.count)
}

func (st spanStats) meanN() float64 {
	if st.count == 0 {
		return 0
	}
	return float64(st.nSum) / float64(st.count)
}

// selfTime is the mean of each parent's duration minus the part of its
// interval covered by the union of children. Parents of one kind on
// one node never overlap for BatchDiff (the Collection serializes
// flushes), so containment attributes each child exactly; concurrent
// queries may share a child, which only shifts time between the two.
func selfTime(parents, children []span) float64 {
	if len(parents) == 0 {
		return 0
	}
	sortByStart(children)
	var self int64
	for _, p := range parents {
		covered, _ := coverage(p, children)
		self += (p.end - p.start) - covered
	}
	return float64(self) / float64(len(parents))
}

// attributed is the mean time per request that measured spans explain:
// the generator's lateness, plus, for the share of dispatched requests
// that left a shard span, the service's self time and every shard span
// that holds at least one child span. With every layer recorded it is
// late + dispatch. A layer whose spans are missing drops out, instead
// of being absorbed by its parent's self time: without child spans the
// shard time is not attributed, and without shard spans nothing below
// the generator is. nDispatch counts the dispatch histogram's requests.
func attributed(late, dispatch float64, nDispatch int, shard, tree []span) float64 {
	if nDispatch == 0 || len(shard) == 0 {
		return late
	}
	sortByStart(tree)
	var shardSum, withChildren int64
	for _, p := range shard {
		shardSum += p.end - p.start
		if _, n := coverage(p, tree); n > 0 {
			withChildren += p.end - p.start
		}
	}
	k := float64(len(shard))
	share := min(1, k/float64(nDispatch))
	return late + share*(dispatch-float64(shardSum)/k+float64(withChildren)/k)
}

func sortByStart(s []span) {
	slices.SortFunc(s, func(a, b span) int { return int(a.start - b.start) })
}

// coverage returns how much of p's interval the union of the children
// inside it covers, and how many children it holds. children must be
// sorted by start.
func coverage(p span, children []span) (covered int64, n int) {
	i, _ := slices.BinarySearchFunc(children, p.start, func(s span, t int64) int {
		switch {
		case s.start < t:
			return -1
		case s.start > t:
			return 1
		}
		return 0
	})
	curS, curE := int64(-1), int64(-1)
	for ; i < len(children) && children[i].start < p.end; i++ {
		c := children[i]
		if c.end > p.end {
			continue
		}
		n++
		if c.start > curE {
			covered += curE - curS
			curS, curE = c.start, c.end
		} else if c.end > curE {
			curE = c.end
		}
	}
	return covered + curE - curS, n
}
