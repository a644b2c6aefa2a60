// Package store implements psi.Store, a concurrent batch-coalescing
// front-end over any core.Index. The paper's indexes are batch-synchronous:
// batch updates parallelize internally but the caller must serialize
// mutation (core.Index: "NOT safe for concurrent mutation"). Store removes
// that caveat at the API boundary. Many goroutines enqueue Insert/Delete
// requests concurrently; Store coalesces them into batches and applies each
// batch with a single BatchDiff under a write lock, so the paper's parallel
// batch-update machinery is amortized across callers instead of being
// driven one mutation at a time. Queries always observe a consistent
// view: either all of a flushed batch or none of it, never a half-applied
// update: they share a read lock with the flush writer. The Store keeps
// one copy of the index; wait-free snapshot reads belong to the layer
// above it — collection.Collection with Options.Snapshot is the one place
// that double-buffers (ARCHITECTURE.md "Epochs & snapshot reads").
//
// Visibility contract: a mutation becomes visible to queries atomically at
// the flush that applies it — on the enqueue that fills the batch to
// MaxBatch, at the next FlushInterval tick, or at an explicit Flush. A
// flush has the same net effect as executing the window's mutations
// sequentially in enqueue order: pending mutations are kept in one
// ordered log, and at flush each delete cancels against one *preceding*
// unmatched pending insert of the same point when one exists — otherwise
// it passes through to the index's delete batch, which applies before the
// surviving inserts. This order-aware netting is what makes coalescing
// transparent: a move chain (delete p0, insert p1, delete p1, insert p2)
// nets to {delete p0, insert p2} even when the whole chain lands in one
// window, and a delete enqueued before any insert of its point never
// consumes that later insert. Enqueue order is the order appends take the
// pending lock, which is consistent with every goroutine's program order.
//
// Scaling composition: a Store's flush throughput is bounded by one
// index's batch speed. Wrapping a shard.Sharded (Store over Sharded)
// keeps this package's coalescing and whole-batch visibility while each
// flush fans out across the shards in parallel — the recommended
// high-volume serving stack (README "Scaling out").
package store

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
)

// DefaultMaxBatch is the coalescing threshold used when Options.MaxBatch
// is unset: the pending-mutation count at which the enqueuing goroutine
// flushes synchronously. The default matches parallel.DefaultGrain, the
// size below which the indexes' batch operations stop forking.
const DefaultMaxBatch = 1024

// Options tunes a Store. The zero value is usable: DefaultMaxBatch
// coalescing, no background flusher.
type Options struct {
	// MaxBatch is the pending-mutation count that triggers a synchronous
	// flush by the enqueuing goroutine (built-in backpressure: the caller
	// that fills the batch pays for applying it). <= 0 selects
	// DefaultMaxBatch.
	MaxBatch int
	// FlushInterval, when positive, starts a background goroutine that
	// flushes pending mutations every interval, bounding the staleness of
	// the queried view under light write traffic. Stop it with Close.
	FlushInterval time.Duration
	// DisableScratch turns off the flush-path buffer recycling, so every
	// flush allocates a fresh op log and netting buffers (the pre-reuse
	// behavior). It exists so -exp alloc can measure the before/after of
	// scratch reuse; production configurations leave it false.
	DisableScratch bool
	// Obs, when set, registers the Store's metrics (flush counters and
	// the flush duration histogram, all labeled layer="store") and
	// records a flush-pipeline span per flush into the registry's trace
	// ring. Recording is atomics into preallocated storage — the
	// zero-alloc flush guarantee holds with a live registry. Leave nil to
	// pay nothing.
	Obs *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = DefaultMaxBatch
	}
	return o
}

// Stats is a snapshot of a Store's lifetime counters. It is assembled
// from atomics and the pending lock only — never the writer lock — so
// sampling it during a large flush does not block.
type Stats struct {
	Flushes   uint64 // batches applied to the index
	Inserted  uint64 // insert requests applied by those batches
	Deleted   uint64 // delete requests applied by those batches
	Cancelled uint64 // insert/delete pairs netted out before applying
	Pending   int    // mutations enqueued but not yet flushed
}

// Store wraps a core.Index for safe concurrent use. Create one with New;
// the zero value is not usable. Store itself implements core.Index, so it
// is a drop-in replacement anywhere an index is consumed — with the added
// guarantee that every method may be called from any number of goroutines.
type Store struct {
	opts Options
	idx  core.Index

	// pend guards the coalescing log. It is held only for appends and
	// swaps — never while a batch is applied — so enqueueing stays cheap
	// under contention. The log is ordered: netting at flush time needs to
	// know whether a delete preceded or followed an insert of its point.
	pend struct {
		sync.Mutex
		ops []pendOp
	}

	// flushMu serializes flushes: batches are swapped out and applied in a
	// single order, so the index always reflects a prefix of the enqueue
	// history. rw guards the wrapped index: queries share read locks,
	// batch application takes the write lock.
	flushMu sync.Mutex
	rw      sync.RWMutex

	// scratch is the flush-path buffer set, guarded by flushMu. The op
	// log double-buffers through spare: each flush swaps the live log out
	// and hands the previous window's (emptied) buffer back to the
	// enqueuers, so a warm Store flushes with zero allocations.
	scratch flushScratch

	flushes   atomic.Uint64
	inserted  atomic.Uint64
	deleted   atomic.Uint64
	cancelled atomic.Uint64
	rawOps    atomic.Uint64

	// met is the observability hook set, nil unless Options.Obs was
	// given. met.span is the persistent flush-span scratch, guarded by
	// flushMu like the rest of the flush state, so recording a span never
	// allocates.
	met *storeMetrics

	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// pendOp is one logged mutation request.
type pendOp struct {
	p   geom.Point
	del bool
}

var _ core.Index = (*Store)(nil)

// New wraps idx in a Store. The Store takes ownership: the caller must not
// touch idx directly afterwards. If opts.FlushInterval is positive the
// background flusher starts immediately; pair New with Close to stop it.
func New(idx core.Index, opts Options) *Store {
	s := &Store{opts: opts.withDefaults(), idx: idx, stop: make(chan struct{})}
	if s.opts.Obs != nil {
		s.met = newStoreMetrics(s.opts.Obs, s)
	}
	if s.opts.FlushInterval > 0 {
		s.wg.Add(1)
		go s.flushLoop()
	}
	return s
}

func (s *Store) flushLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.opts.FlushInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.Flush()
		case <-s.stop:
			return
		}
	}
}

// Close stops the background flusher (if any) and applies all pending
// mutations. The Store remains usable after Close — only the periodic
// flushing ends. Close is idempotent.
func (s *Store) Close() {
	s.closeOnce.Do(func() {
		close(s.stop)
		s.wg.Wait()
	})
	s.Flush()
}

// Name implements core.Index.
func (s *Store) Name() string { return fmt.Sprintf("Store(%s)", s.idx.Name()) }

// Dims implements core.Index.
func (s *Store) Dims() int { return s.idx.Dims() }

// Insert enqueues one point for insertion.
func (s *Store) Insert(p geom.Point) { s.enqueue(p, false) }

// Delete enqueues the removal of one occurrence of p. As with
// core.Index.BatchDelete, a request matching no stored point is ignored
// when its batch applies.
func (s *Store) Delete(p geom.Point) { s.enqueue(p, true) }

func (s *Store) enqueue(p geom.Point, del bool) {
	s.pend.Lock()
	s.pend.ops = append(s.pend.ops, pendOp{p: p, del: del})
	full := len(s.pend.ops) >= s.opts.MaxBatch
	s.pend.Unlock()
	if full {
		s.Flush()
	}
}

// BatchInsert implements core.Index: the whole batch is enqueued as a unit
// and will be applied by a single flush.
func (s *Store) BatchInsert(pts []geom.Point) { s.enqueueBatch(pts, nil) }

// BatchDelete implements core.Index.
func (s *Store) BatchDelete(pts []geom.Point) { s.enqueueBatch(nil, pts) }

// BatchDiff implements core.Index.
func (s *Store) BatchDiff(ins, del []geom.Point) { s.enqueueBatch(ins, del) }

// enqueueBatch logs the deletes before the inserts, matching the
// core.Index BatchDiff contract ("the del points leave, the ins points
// enter") for a same-call overlap.
func (s *Store) enqueueBatch(ins, del []geom.Point) {
	if len(ins) == 0 && len(del) == 0 {
		return
	}
	s.pend.Lock()
	for _, p := range del {
		s.pend.ops = append(s.pend.ops, pendOp{p: p, del: true})
	}
	for _, p := range ins {
		s.pend.ops = append(s.pend.ops, pendOp{p: p})
	}
	full := len(s.pend.ops) >= s.opts.MaxBatch
	s.pend.Unlock()
	if full {
		s.Flush()
	}
}

// Flush applies every pending mutation as one batch and returns the number
// applied. Each enqueued mutation is applied by exactly one flush: the
// buffers are swapped out under the pending lock, so concurrent flushes
// and enqueues never double-apply or drop a request. Flush is a
// synchronization barrier — on return, every mutation enqueued before the
// call is visible to queries.
func (s *Store) Flush() int {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	sc := &s.scratch
	if s.opts.DisableScratch {
		sc = new(flushScratch)
	}
	s.pend.Lock()
	if len(s.pend.ops) == 0 {
		s.pend.Unlock()
		return 0
	}
	ops := s.pend.ops
	// Hand the previous window's emptied buffer to the enqueuers: the op
	// log double-buffers instead of re-growing from nil every window.
	s.pend.ops = sc.spare
	sc.spare = nil
	s.pend.Unlock()
	m := s.met
	var clk time.Time
	if m != nil {
		clk = time.Now()
		m.span = obs.FlushSpan{Layer: "store", Start: clk.UnixNano()}
	}
	ins, del, cancelled := sc.net(ops)
	if m != nil {
		clk = m.span.Stamp(obs.StageNet, clk)
	}
	s.rw.Lock()
	s.idx.BatchDiff(ins, del)
	s.rw.Unlock()
	if m != nil {
		m.span.Stamp(obs.StageApply, clk)
	}
	// ins/del alias sc buffers; the index must not have retained them
	// (the core.Index batch contract), so they are reusable next flush —
	// as is the swapped-out op log — unless this was a bulk window.
	sc.spare = ops[:0]
	if len(ops) > maxRetainedWindow {
		*sc = flushScratch{}
	}
	s.flushes.Add(1)
	s.cancelled.Add(uint64(cancelled))
	s.inserted.Add(uint64(len(ins)))
	s.deleted.Add(uint64(len(del)))
	s.rawOps.Add(uint64(len(ops)))
	if m != nil {
		m.span.RawOps = len(ops)
		m.span.NettedOps = len(ins) + len(del)
		m.span.Cancelled = cancelled
		m.flushDur.Record(m.span.Dur())
		m.trace.Record(m.span)
	}
	return len(ins) + len(del)
}

// flushScratch is the per-Store flush buffer set (guarded by flushMu):
// the recycled op log plus the netting buffers. Every buffer is reset per
// window at a cost in proportion to that window — the netting maps are
// emptied key by key, never cleared at their retained capacity — and the
// whole set is dropped after a window of more than maxRetainedWindow ops.
type flushScratch struct {
	spare       []pendOp
	ins, del    []geom.Point
	avail, skip map[geom.Point]int
}

// maxRetainedWindow bounds the flush scratch kept between windows: a
// window of more ops than this (a bulk load) has its buffers dropped
// rather than recycled, so it leaves nothing population-sized behind.
// Serving windows (MaxBatch, 1024 by default) stay far below it and keep
// the zero-alloc flush.
const maxRetainedWindow = 1 << 14

// net reduces one flush window's ordered op log to the (ins, del)
// batches whose BatchDiff application has the same net effect as running
// the log sequentially. Each delete cancels one preceding unmatched
// pending insert of its point when one exists; otherwise it is a real
// delete targeting points stored before the window, so applying all real
// deletes before all surviving inserts (the BatchDiff order) reproduces
// sequential execution exactly. A delete enqueued before any insert of
// its point therefore never consumes that later insert. The common
// single-kind windows skip the matching pass entirely.
//
// The returned slices alias the scratch: they are valid until the next
// net call, and callers hand them to BatchDiff, which must not retain
// them (the core.Index batch contract).
func (sc *flushScratch) net(ops []pendOp) (ins, del []geom.Point, cancelled int) {
	nDel := 0
	for _, op := range ops {
		if op.del {
			nDel++
		}
	}
	if nDel == 0 || nDel == len(ops) {
		out := sc.ins[:0]
		for _, op := range ops {
			out = append(out, op.p)
		}
		sc.ins = out
		if nDel == 0 {
			return out, nil, 0
		}
		return nil, out, 0
	}
	// Pass 1, in order: count unmatched preceding inserts per point; a
	// delete with one available consumes it, the rest are real deletes.
	// Both maps are empty here: the previous mixed window emptied them.
	if sc.avail == nil {
		sc.avail = make(map[geom.Point]int)
		sc.skip = make(map[geom.Point]int)
	}
	avail, skip := sc.avail, sc.skip // skip: insert occurrences to drop per point
	del = sc.del[:0]
	for _, op := range ops {
		switch {
		case !op.del:
			avail[op.p]++
		case avail[op.p] > 0:
			avail[op.p]--
			skip[op.p]++
			cancelled++
		default:
			del = append(del, op.p)
		}
	}
	// Pass 2: collect the surviving inserts. Which occurrence of a point
	// is dropped is irrelevant under multiset semantics, so skip the
	// earliest ones.
	ins = sc.ins[:0]
	for _, op := range ops {
		if op.del {
			continue
		}
		if skip[op.p] > 0 {
			skip[op.p]--
			continue
		}
		ins = append(ins, op.p)
	}
	// Empty the maps by the window's own keys (every key is an inserted
	// point), so the reset costs O(window), not O(retained capacity).
	for _, op := range ops {
		if !op.del {
			delete(avail, op.p)
			delete(skip, op.p)
		}
	}
	sc.ins, sc.del = ins, del
	return ins, del, cancelled
}

// Build implements core.Index: it atomically replaces the contents with
// pts. Mutations enqueued before Build and not yet flushed are discarded —
// Build defines a new epoch, matching the bulk-construction contract.
func (s *Store) Build(pts []geom.Point) {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	s.pend.Lock()
	s.pend.ops = nil
	s.pend.Unlock()
	s.rw.Lock()
	s.idx.Build(pts)
	s.rw.Unlock()
}

// Size implements core.Index. It first flushes pending mutations so the
// answer reflects every enqueue that happened before the call.
func (s *Store) Size() int {
	s.Flush()
	s.rw.RLock()
	defer s.rw.RUnlock()
	return s.idx.Size()
}

// KNN implements core.Index. Queries always observe a whole number of
// flushed batches, never a half-applied one: they share the read lock
// with the flush writer.
func (s *Store) KNN(q geom.Point, k int, dst []geom.Point) []geom.Point {
	s.rw.RLock()
	defer s.rw.RUnlock()
	return s.idx.KNN(q, k, dst)
}

// RangeCount implements core.Index.
func (s *Store) RangeCount(box geom.Box) int {
	s.rw.RLock()
	defer s.rw.RUnlock()
	return s.idx.RangeCount(box)
}

// RangeList implements core.Index.
func (s *Store) RangeList(box geom.Box, dst []geom.Point) []geom.Point {
	s.rw.RLock()
	defer s.rw.RUnlock()
	return s.idx.RangeList(box, dst)
}

// Pending returns the number of enqueued, not-yet-flushed mutations.
func (s *Store) Pending() int {
	s.pend.Lock()
	defer s.pend.Unlock()
	return len(s.pend.ops)
}

// Stats returns a snapshot of the Store's counters. The counters are
// updated after each flush, so a snapshot taken concurrently with a flush
// may lag by that one batch. Stats never takes the writer lock, so it
// does not block behind an in-flight flush.
func (s *Store) Stats() Stats {
	return Stats{
		Flushes:   s.flushes.Load(),
		Inserted:  s.inserted.Load(),
		Deleted:   s.deleted.Load(),
		Cancelled: s.cancelled.Load(),
		Pending:   s.Pending(),
	}
}
