// Package collection implements psi.Collection, a concurrent ID-keyed
// moving-object layer over any core.Index. The paper's indexes (and the
// Store/Sharded layers built on them) operate on anonymous point
// multisets; every serving scenario — fleet tracking, geofencing, game
// worlds — needs *identity*: "object X moved from p0 to p1", which is
// exactly the paper's BatchDiff applied per tracked object. A Collection
// owns one point per live ID and turns each Set into the minimal diff:
//
//	Set(id, p1) on an object at p0  →  BatchDiff{ins: p1, del: p0}
//
// Mutations go through an ID-keyed coalescing log (the identity analogue
// of internal/store's multiset log): Set/Remove calls from any number of
// goroutines append to an ordered tape, and a flush nets the tape by
// last-write-wins per ID — an object moved five times in one window costs
// the index one delete and one insert, and a Set followed by Remove in
// the same window costs nothing. Because identity makes netting exact,
// the tape never needs the order-aware insert/delete matching the Store
// does for anonymous points.
//
// Consistency: the geometric index, the forward table (ID → point), and
// the reverse multimap (point → IDs) all advance together at the flush
// boundary, as one versioned triple. Queries (NearbyIDs, WithinIDs) run
// the geometric query and resolve every hit through the reverse multimap
// of the same triple — they can never observe an index point without its
// owner or vice versa. In the default locked mode the triple sits behind
// a read/write lock; with Options.Snapshot set the Collection keeps two
// triples and publishes them through an epoch manager (internal/epoch),
// so queries pin the published epoch and never wait on a flush
// (ARCHITECTURE.md "Epochs & snapshot reads"). Get is the exception
// either way: it reads the caller's own pending tail (read-your-writes),
// so Get(id) after Set(id, p) returns p even before the flush makes p
// visible to geometric queries.
//
// Composition: the inner index may be a raw tree (Collection adds the
// concurrency safety), a shard.Sharded (each flush fans out across
// shards in parallel — the recommended high-churn stack), or a
// store.Store (legal; the Collection flushes it synchronously so the
// reverse multimap never runs ahead of the index, but the Store's own
// coalescing is redundant below a Collection).
package collection

import (
	"fmt"
	"iter"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/wal"
)

// DefaultMaxBatch is the coalescing threshold used when Options.MaxBatch
// is unset, matching store.DefaultMaxBatch: the pending-op count at which
// the enqueuing goroutine flushes synchronously.
const DefaultMaxBatch = 1024

// Options tunes a Collection. The zero value is usable: DefaultMaxBatch
// coalescing, no background flusher.
type Options struct {
	// MaxBatch is the pending-op count that triggers a synchronous flush
	// by the enqueuing goroutine (built-in backpressure). <= 0 selects
	// DefaultMaxBatch.
	MaxBatch int
	// FlushInterval, when positive, starts a background goroutine that
	// flushes every interval, bounding how far geometric queries lag
	// behind Set calls under light write traffic. Stop it with Close.
	FlushInterval time.Duration
	// DisableScratch turns off the flush- and query-path buffer recycling
	// (op tape, netting slots, diff buffers, reverse-multimap freelist,
	// query scratch), so every window and query allocates fresh — the
	// pre-reuse behavior. It exists so -exp alloc can measure the
	// before/after of scratch reuse; production configurations leave it
	// false.
	DisableScratch bool
	// Snapshot, when set, switches the Collection to epoch-pinned
	// snapshot reads: it must return a fresh, EMPTY index configured
	// identically to the wrapped one (core.Replicator semantics — most
	// callers pass the same constructor they built idx with, and the
	// service layer derives this automatically from core.Replicator).
	// The Collection then versions the whole committed triple — index,
	// forward table, reverse multimap — keeping two copies, applying
	// every committed window to both (the off-line one first), and
	// publishing through an atomic epoch pointer; NearbyIDs/WithinIDs/Get
	// pin the published version instead of taking the read lock, so a
	// reader never waits on a flush. The wrapped index must be empty at
	// New. Leave nil for the classic single-copy RWMutex mode.
	Snapshot func() core.Index
	// Obs, when set, registers the Collection's metrics (flush counters,
	// flush duration histogram, live-object and epoch gauges, all labeled
	// layer="collection") and records a flush-pipeline span per flush
	// into the registry's trace ring. Recording is atomics into
	// preallocated storage — the zero-alloc flush guarantee holds with a
	// live registry. Leave nil to pay nothing.
	Obs *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = DefaultMaxBatch
	}
	return o
}

// Stats is a snapshot of a Collection's lifetime counters. It is
// assembled from atomics, the pending lock, and (in snapshot mode) a
// pinned epoch — never the writer lock — so sampling it during a large
// flush does not block.
type Stats struct {
	Flushes   uint64 // batches applied to the index
	Inserted  uint64 // objects that entered the index (first Set)
	Moved     uint64 // objects relocated (Set on a live ID, position changed)
	Removed   uint64 // objects deleted from the index
	Cancelled uint64 // enqueued ops superseded in-window by a later op on the same ID
	// JournalErrors counts failed journal-hook calls (windows that
	// committed in memory but could not be confirmed durable). Zero
	// when no hook is installed; any nonzero value means durability is
	// compromised until the WAL is repaired.
	JournalErrors uint64
	Pending       int    // ops enqueued but not yet flushed
	Objects       int    // live objects in the committed (published) state
	Epoch         uint64 // published snapshot epoch (0 in locked mode)
	Versions      int    // live state versions: 2 in snapshot mode, 1 locked
	RetireLag     uint64 // published epochs whose displaced version has not drained
}

// Entry is one resolved query hit: a live object and its indexed
// position.
type Entry[ID comparable] struct {
	ID    ID
	Point geom.Point
}

// Collection tracks one point per ID over an inner core.Index. Create
// one with New; the zero value is not usable. All methods are safe for
// concurrent use by any number of goroutines.
type Collection[ID comparable] struct {
	opts Options
	idx  core.Index
	dims int

	// pend guards the ID-keyed coalescing log: the ordered op tape plus
	// an overlay holding the latest pending op per ID (what Get reads).
	// It is held only for appends, overlay lookups, and the post-commit
	// purge — never while a batch is applied.
	pend struct {
		sync.Mutex
		seq     uint64
		ops     []op[ID]
		overlay map[ID]tailOp
	}

	// flushMu serializes flushes, so the committed state always reflects
	// a prefix of the enqueue history. In locked mode rw guards the
	// committed triple live (inner index, fwd, rev): queries share read
	// locks, a flush commits under the write lock. In snapshot mode live
	// is nil and the triple is versioned through snap instead.
	flushMu sync.Mutex
	rw      sync.RWMutex
	live    *collState[ID]

	// snap is the snapshot-read state, active when Options.Snapshot is
	// set: the epoch manager publishing the current triple, the standby
	// twin the next flush writes, and the previously committed window
	// (guarded by flushMu) — its netted ops plus the planned index diff —
	// replayed on the standby as catch-up before the new window applies,
	// so both twins see the same history one window apart. The two
	// Version structs live for the Collection's lifetime; the saved
	// buffers are reused like the flush scratch (see maxRetainedWindow),
	// preserving the zero-alloc flush.
	snap struct {
		enabled            bool
		mgr                epoch.Manager[*collState[ID]]
		standby            *epoch.Version[*collState[ID]]
		savedOps           []op[ID]
		savedIns, savedDel []geom.Point
	}

	// scratch is the flush-path buffer set (guarded by flushMu): the
	// recycled op tape, the last-write-wins netting slots, and the diff
	// buffers handed to BatchDiff. revFree (guarded by rw's write side)
	// recycles the reverse multimap's small per-point ID slices, so a
	// steady stream of moves churns no fresh slices. queryPool recycles
	// per-query hit-resolution scratch across concurrent readers.
	scratch   collScratch[ID]
	revFree   [][]ID
	queryPool sync.Pool

	// journal is the durability commit hook (SetJournal), called under
	// flushMu with every committed netted window before it is applied.
	// journalErrs counts hook failures (the hook itself keeps the first
	// error sticky; see wal.Log).
	journal     func(ops []wal.Op[ID]) error
	journalErrs atomic.Uint64

	flushes   atomic.Uint64
	inserted  atomic.Uint64
	moved     atomic.Uint64
	removed   atomic.Uint64
	cancelled atomic.Uint64
	rawOps    atomic.Uint64
	applied   atomic.Uint64

	// met is the observability hook set, nil unless Options.Obs was
	// given. met.span is the persistent flush-span scratch, guarded by
	// flushMu like the rest of the flush state, so recording a span never
	// allocates.
	met *collMetrics

	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once

	// flusher tracks the background flush goroutine so it can be stopped
	// and restarted at runtime (a replication role flip turns interval
	// flushing off for a follower and back on at promotion). stop is the
	// running flusher's private stop channel, nil while no flusher runs;
	// closed latches once Close begins so a racing StartFlusher can never
	// add to wg after Close's Wait.
	flusher struct {
		sync.Mutex
		stop   chan struct{}
		closed bool
	}
}

// op is one logged mutation: Set (del=false) or Remove (del=true) of id.
// seq is the global enqueue sequence number, used to purge overlay
// entries once their window commits.
type op[ID comparable] struct {
	id  ID
	p   geom.Point
	del bool
	seq uint64
}

// tailOp is the overlay value: the latest pending op for an ID.
type tailOp struct {
	p   geom.Point
	del bool
	seq uint64
}

// collState is one committed triple: the geometric index, the forward
// table, and the reverse multimap, always advanced together. Locked mode
// has a single instance; snapshot mode ping-pongs between two.
type collState[ID comparable] struct {
	idx core.Index
	// costed is idx's cost-reporting query interface when it has one
	// (shard.Sharded does); the slow-query path uses it to attribute
	// shards visited and candidates scanned, falling back to whole-index
	// counts otherwise.
	costed obs.CostedIndex
	fwd    map[ID]geom.Point
	rev    map[geom.Point][]ID
}

func newCollState[ID comparable](idx core.Index) *collState[ID] {
	costed, _ := idx.(obs.CostedIndex)
	return &collState[ID]{
		idx:    idx,
		costed: costed,
		fwd:    make(map[ID]geom.Point),
		rev:    make(map[geom.Point][]ID),
	}
}

// collScratch is the recycled flush state. Every buffer is reset per
// window at a cost in proportion to that window — never to its retained
// capacity — and is dropped instead of kept after a window of more than
// maxRetainedWindow ops.
type collScratch[ID comparable] struct {
	spare []op[ID]
	// slot maps each ID of the window being netted to its index in net,
	// the window's netted ops in first-enqueue order. A later op on the
	// same ID overwrites its slot (last write wins). slot holds only the
	// current window's keys and is emptied key by key right after
	// netting.
	slot     map[ID]int
	net      []op[ID]
	ins, del []geom.Point
	// jops is the journal hook's window buffer, rebuilt from net each
	// flush so journaling allocates nothing warm.
	jops []wal.Op[ID]
}

// maxRetainedWindow bounds the flush scratch kept between windows: after
// a window of more netted (or raw) ops than this, its buffers are
// dropped rather than recycled, so a bulk window — a replication
// bootstrap, WAL recovery, a bulk load — leaves nothing population-sized
// behind. Serving windows (MaxBatch, 1024 by default) stay far below it
// and keep the zero-alloc flush.
const maxRetainedWindow = 1 << 14

// recycle empties a window buffer for the next window, or drops it when
// the window that filled it held more than maxRetainedWindow elements.
// Kept buffers are cleared so their capacity never pins the window's ID
// values while the Collection idles.
func recycle[T any](s []T) []T {
	if len(s) > maxRetainedWindow {
		return nil
	}
	clear(s)
	return s[:0]
}

// queryScratch is one query's resolution state: the raw geometric hits
// and the duplicate-point cursor (only touched for multi-owner points).
type queryScratch struct {
	pts    []geom.Point
	cursor map[geom.Point]int
}

// maxRevFree caps the reverse-multimap slice freelist so a collection
// that shrinks dramatically does not hold spare slices forever.
const maxRevFree = 1 << 16

// New wraps idx in a Collection. The Collection takes ownership of idx:
// the caller must not touch it directly afterwards (in particular, the
// index must start empty — every stored point must have an owning ID).
// If opts.FlushInterval is positive the background flusher starts
// immediately; pair New with Close to stop it.
func New[ID comparable](idx core.Index, opts Options) *Collection[ID] {
	c := &Collection[ID]{
		opts: opts.withDefaults(),
		idx:  idx,
		dims: idx.Dims(),
		stop: make(chan struct{}),
	}
	c.pend.overlay = make(map[ID]tailOp)
	c.queryPool.New = func() any { return new(queryScratch) }
	if c.opts.Snapshot != nil {
		if idx.Size() != 0 {
			panic("collection: Options.Snapshot requires an initially empty index")
		}
		mirror := c.opts.Snapshot()
		if mirror == nil || mirror.Size() != 0 {
			panic("collection: Options.Snapshot must return a fresh, empty index")
		}
		c.snap.enabled = true
		c.snap.mgr.Init(epoch.NewVersion(newCollState[ID](idx)))
		c.snap.standby = epoch.NewVersion(newCollState[ID](mirror))
	} else {
		c.live = newCollState[ID](idx)
	}
	if c.opts.Obs != nil {
		c.met = newCollMetrics(c.opts.Obs, c)
	}
	c.StartFlusher(c.opts.FlushInterval)
	return c
}

// StartFlusher starts the background interval flusher at cadence d, if
// none is running (d <= 0 is a no-op, matching Options.FlushInterval's
// contract). A replication follower runs without one — windows apply
// only on the leader's schedule — and promotion calls StartFlusher to
// restore normal serving behavior in place.
func (c *Collection[ID]) StartFlusher(d time.Duration) {
	if d <= 0 {
		return
	}
	c.flusher.Lock()
	defer c.flusher.Unlock()
	if c.flusher.closed || c.flusher.stop != nil {
		return
	}
	stop := make(chan struct{})
	c.flusher.stop = stop
	c.wg.Add(1)
	go c.flushLoop(d, stop)
}

// StopFlusher stops the background flusher and waits for it to exit (no
// tick-driven Flush is in flight on return). A no-op when none runs.
func (c *Collection[ID]) StopFlusher() {
	c.flusher.Lock()
	stop := c.flusher.stop
	c.flusher.stop = nil
	c.flusher.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	c.wg.Wait()
}

// SetMaxBatch changes the pending-op count that triggers a synchronous
// flush (n <= 0 restores DefaultMaxBatch). A follower effectively
// disables count-triggered flushes with a huge bound — only replicated
// windows may commit — and promotion restores the configured one.
func (c *Collection[ID]) SetMaxBatch(n int) {
	if n <= 0 {
		n = DefaultMaxBatch
	}
	c.pend.Lock()
	c.opts.MaxBatch = n
	c.pend.Unlock()
}

func (c *Collection[ID]) flushLoop(d time.Duration, stop chan struct{}) {
	defer c.wg.Done()
	t := time.NewTicker(d)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			c.Flush()
		case <-stop:
			return
		case <-c.stop:
			return
		}
	}
}

// Close stops the background flusher (if any), applies all pending ops
// as a final flush (journaled like any other window when a hook is
// installed), and closes the inner index when it has a Close method of
// its own (a wrapped Store's background flusher, for example — the
// Collection owns idx, so nobody else can stop it). The whole sequence
// runs exactly once: the ticker goroutine is fully stopped before the
// final flush, and the inner close happens under the flush lock, so no
// flush — ticker tick, concurrent Close, or a racing Set-triggered
// flush — can apply to a half-closed index. Close is idempotent; the
// Collection remains queryable afterwards (only the periodic flushing
// ends — a wrapped Store stays usable after its own Close, per its
// contract).
func (c *Collection[ID]) Close() {
	c.closeOnce.Do(func() {
		c.flusher.Lock()
		c.flusher.closed = true // no StartFlusher can add to wg past this point
		c.flusher.Unlock()
		close(c.stop)
		// The ticker goroutine has exited before the final flush below:
		// a tick can never flush after the inner index is closed.
		c.wg.Wait()
		c.Flush()
		c.flushMu.Lock()
		defer c.flushMu.Unlock()
		if c.snap.enabled {
			// Both twins may wrap closable layers; flushMu keeps the
			// current/standby pair stable while they are closed.
			for _, st := range []*collState[ID]{c.snap.mgr.Current().Data, c.snap.standby.Data} {
				if cl, ok := st.idx.(interface{ Close() }); ok {
					cl.Close()
				}
			}
			return
		}
		if cl, ok := c.idx.(interface{ Close() }); ok {
			cl.Close()
		}
	})
}

// SetJournal installs (or, with nil, removes) the durability commit
// hook: every subsequent flush calls fn under the flush lock with the
// committed netted window — at most one op per ID, listed in the order
// each ID was first enqueued in the window and carrying its last write —
// before the window is applied or published. The order depends only on
// the enqueue history, so the same window journals byte-identically
// wherever it is flushed. wal.Log.AppendWindow is the intended hook;
// the slice is reused across flushes and must not be retained. Install
// it before the ops that need journaling are flushed — the service
// layer installs it between crash-recovery replay (whose windows are
// already on disk and must not be re-journaled) and serving. Hook
// errors are counted in Stats.JournalErrors; see Flush for why they do
// not abort the commit.
func (c *Collection[ID]) SetJournal(fn func(ops []wal.Op[ID]) error) {
	c.flushMu.Lock()
	c.journal = fn
	c.flushMu.Unlock()
}

// Checkpoint runs fn while the flush pipeline is quiescent: no window
// can commit (or be journaled) until fn returns. fn receives the
// committed object count and an iterator over the committed forward
// table — exactly the fold of every journaled window — which is what a
// WAL snapshot must capture for its seq to line up with the log
// (internal/service pairs Checkpoint with wal.Log.WriteSnapshot). fn
// must not call back into the Collection (Flush, Set-triggered
// flushes, and Close all take the same lock) and must not retain the
// iterator past its return. Pending (unflushed, unjournaled) ops are
// deliberately excluded.
func (c *Collection[ID]) Checkpoint(fn func(objects int, entries iter.Seq2[ID, geom.Point])) {
	c.flushMu.Lock()
	defer c.flushMu.Unlock()
	st := c.live
	if c.snap.enabled {
		st = c.snap.mgr.Current().Data
	}
	// Only flushes write fwd and flushMu excludes them all; concurrent
	// readers share fwd without a lock in snapshot mode and under
	// RLocks (which do not exclude us) in locked mode — either way a
	// read-only walk here is race-free.
	fn(len(st.fwd), func(yield func(ID, geom.Point) bool) {
		for id, p := range st.fwd {
			if !yield(id, p) {
				return
			}
		}
	})
}

// Name labels the Collection after its inner index.
func (c *Collection[ID]) Name() string { return fmt.Sprintf("Collection(%s)", c.idx.Name()) }

// Dims returns the dimensionality of the inner index.
func (c *Collection[ID]) Dims() int { return c.dims }

// Set enqueues a move: id is (re)located to p. The relocation becomes
// visible to geometric queries at the flush that applies it, netted with
// any other pending ops on the same ID; Get(id) sees it immediately.
func (c *Collection[ID]) Set(id ID, p geom.Point) { c.enqueue(id, p, false) }

// Remove enqueues the removal of id. Removing an absent ID is a no-op
// when its window flushes.
func (c *Collection[ID]) Remove(id ID) { c.enqueue(id, geom.Point{}, true) }

func (c *Collection[ID]) enqueue(id ID, p geom.Point, del bool) {
	c.pend.Lock()
	c.pend.seq++
	c.pend.ops = append(c.pend.ops, op[ID]{id: id, p: p, del: del, seq: c.pend.seq})
	c.pend.overlay[id] = tailOp{p: p, del: del, seq: c.pend.seq}
	full := len(c.pend.ops) >= c.opts.MaxBatch
	c.pend.Unlock()
	if full {
		c.Flush()
	}
}

// Get returns id's position. It observes the caller's latest enqueued op
// for id even before a flush (read-your-writes): the pending overlay is
// consulted first, the committed table second. The overlay is purged
// only after its window commits (under the writer lock in locked mode,
// after publish in snapshot mode), so a Get that misses the overlay is
// guaranteed to see a committed state at least as new as every purged op.
func (c *Collection[ID]) Get(id ID) (geom.Point, bool) {
	c.pend.Lock()
	tail, ok := c.pend.overlay[id]
	c.pend.Unlock()
	if ok {
		if tail.del {
			return geom.Point{}, false
		}
		return tail.p, true
	}
	if c.snap.enabled {
		v := c.snap.mgr.Pin()
		p, live := v.Data.fwd[id]
		c.snap.mgr.Unpin(v)
		return p, live
	}
	c.rw.RLock()
	p, live := c.live.fwd[id]
	c.rw.RUnlock()
	return p, live
}

// Len flushes pending ops and returns the number of live objects, so the
// answer reflects every enqueue that happened before the call.
func (c *Collection[ID]) Len() int {
	c.Flush()
	if c.snap.enabled {
		v := c.snap.mgr.Pin()
		defer c.snap.mgr.Unpin(v)
		return len(v.Data.fwd)
	}
	c.rw.RLock()
	defer c.rw.RUnlock()
	return len(c.live.fwd)
}

// Epoch returns the snapshot epoch of the currently published version —
// it advances by exactly one per committed window — or 0 in locked mode.
// The fuzz harness uses it to correlate concurrent pinned reads with the
// flush history.
func (c *Collection[ID]) Epoch() uint64 { return c.snap.mgr.Epoch() }

// Flush nets every pending op by last-write-wins per ID, applies the
// resulting diff to the index as one BatchDiff, and advances the
// forward/reverse tables under the same writer lock. It returns the
// number of index mutations applied (inserts + deletes). Flush is a
// synchronization barrier: on return, every op enqueued before the call
// is visible to geometric queries.
func (c *Collection[ID]) Flush() int {
	c.flushMu.Lock()
	defer c.flushMu.Unlock()
	sc := &c.scratch
	if c.opts.DisableScratch {
		sc = new(collScratch[ID])
	}
	c.pend.Lock()
	if len(c.pend.ops) == 0 {
		c.pend.Unlock()
		return 0
	}
	ops := c.pend.ops
	// Hand the previous window's emptied tape to the enqueuers: the op
	// log double-buffers instead of re-growing from nil every window.
	c.pend.ops = sc.spare
	sc.spare = nil
	c.pend.Unlock()

	m := c.met
	var clk time.Time
	if m != nil {
		clk = time.Now()
		m.span = obs.FlushSpan{Layer: "collection", Start: clk.UnixNano()}
	}

	// Net the window: the last op per ID wins, every earlier op on that
	// ID is superseded. Identity makes this exact — no order-aware
	// matching needed. Each ID keeps the slot of its first op, so the
	// netted window lists IDs in first-enqueue order and every pass below
	// walks a dense slice of the window's own size.
	net := sc.netWindow(ops)
	cancelled := len(ops) - len(net)
	c.cancelled.Add(uint64(cancelled))
	if m != nil {
		clk = m.span.Stamp(obs.StageNet, clk)
	}

	// Journal the committed window before applying it (write-ahead):
	// under the always-fsync policy a caller's Flush returns — and the
	// service acknowledges — only after the window is on disk. A hook
	// failure is counted, not fatal here: the in-memory commit proceeds
	// so the triple stays consistent, and the durable-ack layer above
	// decides whether to keep acknowledging (it does not; see
	// internal/service).
	if c.journal != nil {
		jops := sc.jops[:0]
		for _, o := range net {
			jops = append(jops, wal.Op[ID]{ID: o.id, P: o.p, Del: o.del})
		}
		if err := c.journal(jops); err != nil {
			c.journalErrs.Add(1)
		}
		sc.jops = recycle(jops)
		if m != nil {
			clk = m.span.Stamp(obs.StageLog, clk)
		}
	}

	var applied int
	var nIns, nMove, nDel uint64
	if c.snap.enabled {
		applied, nIns, nMove, nDel = c.commitSnapshot(sc, net, clk)
	} else {
		applied, nIns, nMove, nDel = c.commitLocked(sc, net, clk)
	}

	// The raw tape is dead: it is recycled as the next window's spare
	// (cleared, so its capacity pins no ID values) unless it was a bulk
	// window.
	sc.spare = recycle(ops)

	c.flushes.Add(1)
	c.inserted.Add(nIns)
	c.moved.Add(nMove)
	c.removed.Add(nDel)
	c.rawOps.Add(uint64(len(ops)))
	c.applied.Add(uint64(applied))
	if m != nil {
		m.span.RawOps = len(ops)
		m.span.NettedOps = applied
		m.span.Cancelled = cancelled
		if c.snap.enabled {
			m.span.Epoch = c.snap.mgr.Epoch()
		}
		m.flushDur.Record(m.span.Dur())
		m.trace.Record(m.span)
	}
	return applied
}

// netWindow nets one raw window into sc.net by last-write-wins per ID, in
// first-enqueue order, and returns it. The slot map is emptied again key
// by key before returning, and dropped after a bulk window, so netting
// costs O(window) whatever the largest window ever netted was.
func (sc *collScratch[ID]) netWindow(ops []op[ID]) []op[ID] {
	if sc.slot == nil {
		sc.slot = make(map[ID]int, len(ops))
	}
	slot, net := sc.slot, sc.net[:0]
	for _, o := range ops {
		if i, ok := slot[o.id]; ok {
			net[i] = o
			continue
		}
		slot[o.id] = len(net)
		net = append(net, o)
	}
	for _, o := range net {
		delete(slot, o.id)
	}
	if len(net) > maxRetainedWindow {
		sc.slot = nil
	}
	return net
}

// planDiff turns one netted window into the (ins, del) index batches by
// comparing against st's forward table (callers hold flushMu; only
// flushes write fwd, so no reader lock is needed). The returned slices
// alias the scratch.
func (c *Collection[ID]) planDiff(sc *collScratch[ID], st *collState[ID], net []op[ID]) (ins, del []geom.Point, nIns, nMove, nDel uint64) {
	ins = sc.ins[:0]
	del = sc.del[:0]
	for _, o := range net {
		old, live := st.fwd[o.id]
		switch {
		case o.del && live:
			del = append(del, old)
			nDel++
		case o.del:
			// Remove of an absent ID: nothing to do.
		case live && old == o.p:
			// Same-position Set: the index is already right.
		case live:
			del = append(del, old)
			ins = append(ins, o.p)
			nMove++
		default:
			ins = append(ins, o.p)
			nIns++
		}
	}
	return ins, del, nIns, nMove, nDel
}

// applyDiff applies one planned window to st: the index batch (flushing
// any inner deferring layer inside the commit so the triple never
// disagrees at a read boundary) and then every netted op through the
// forward/reverse tables.
func (c *Collection[ID]) applyDiff(st *collState[ID], ins, del []geom.Point, net []op[ID]) {
	st.idx.BatchDiff(ins, del)
	if f, ok := st.idx.(interface{ Flush() int }); ok {
		f.Flush()
	}
	for _, o := range net {
		c.applyOp(st, o)
	}
}

// applyOp advances st's forward/reverse tables by one netted op.
func (c *Collection[ID]) applyOp(st *collState[ID], o op[ID]) {
	old, live := st.fwd[o.id]
	if o.del {
		if live {
			delete(st.fwd, o.id)
			c.revRemove(st, old, o.id)
		}
		return
	}
	if live {
		if old == o.p {
			return
		}
		c.revRemove(st, old, o.id)
	}
	st.fwd[o.id] = o.p
	c.revAdd(st, o.p, o.id)
}

// purgeOverlay drops overlay entries the committed window supersedes.
// Ops enqueued after the tape swap carry higher sequence numbers and
// survive. A bulk window's overlay is replaced once it empties, so its
// capacity does not outlive the window.
func (c *Collection[ID]) purgeOverlay(net []op[ID]) {
	c.pend.Lock()
	for _, o := range net {
		if tail, ok := c.pend.overlay[o.id]; ok && tail.seq <= o.seq {
			delete(c.pend.overlay, o.id)
		}
	}
	if len(net) > maxRetainedWindow && len(c.pend.overlay) == 0 {
		c.pend.overlay = make(map[ID]tailOp)
	}
	c.pend.Unlock()
}

// commitLocked applies one netted window in locked mode: plan against
// the single committed triple, commit under the writer lock, and purge
// the overlay before releasing it — after a Get misses the overlay, the
// committed state it then reads must already include every purged op.
// clk is the flush-span clock (only read when metrics are attached);
// planning counts toward the net stage, the locked commit toward apply.
func (c *Collection[ID]) commitLocked(sc *collScratch[ID], net []op[ID], clk time.Time) (applied int, nIns, nMove, nDel uint64) {
	m := c.met
	st := c.live
	ins, del, nIns, nMove, nDel := c.planDiff(sc, st, net)
	if m != nil {
		clk = m.span.Stamp(obs.StageNet, clk)
	}
	c.rw.Lock()
	c.applyDiff(st, ins, del, net)
	c.purgeOverlay(net)
	c.rw.Unlock()
	if m != nil {
		m.span.Stamp(obs.StageApply, clk)
	}
	// The index must not have retained the batch slices (the core.Index
	// contract), so every window buffer is reusable next window.
	applied = len(ins) + len(del)
	sc.ins, sc.del, sc.net = recycle(ins), recycle(del), recycle(net)
	return applied, nIns, nMove, nDel
}

// commitSnapshot applies one netted window in snapshot mode (callers
// hold flushMu). The standby triple is first caught up with the
// previously committed window — the saved index diff plus the saved
// netted ops, replayed in the same order the published twin saw them —
// then the new window is planned against the standby's (now current)
// forward table, applied, recorded as the next saved window, and
// published. Queries running concurrently pin whichever version is
// current and never block; the overlay purge happens after publish, so a
// Get that misses the overlay pins a version that already includes every
// purged op. The flush returns only after the displaced version drains,
// at which point it becomes the next standby.
func (c *Collection[ID]) commitSnapshot(sc *collScratch[ID], net []op[ID], clk time.Time) (applied int, nIns, nMove, nDel uint64) {
	m := c.met
	st := c.snap.standby.Data
	st.idx.BatchDiff(c.snap.savedIns, c.snap.savedDel)
	if f, ok := st.idx.(interface{ Flush() int }); ok {
		f.Flush()
	}
	for _, o := range c.snap.savedOps {
		c.applyOp(st, o)
	}
	// The replayed window is dead; a bulk one is dropped here rather
	// than held until the next bulk window.
	replayed := recycle(c.snap.savedOps)
	c.snap.savedIns = recycle(c.snap.savedIns)
	c.snap.savedDel = recycle(c.snap.savedDel)
	if m != nil {
		clk = m.span.Stamp(obs.StageReplay, clk)
	}

	ins, del, nIns, nMove, nDel := c.planDiff(sc, st, net)
	if m != nil {
		clk = m.span.Stamp(obs.StageNet, clk)
	}
	c.applyDiff(st, ins, del, net)

	// Save the window for the next catch-up: the netted ops change hands
	// (the replayed buffer becomes the next window's netting slice), while
	// ins/del alias the diff scratch and are copied.
	c.snap.savedOps, sc.net = net, replayed
	c.snap.savedIns = append(c.snap.savedIns, ins...)
	c.snap.savedDel = append(c.snap.savedDel, del...)
	applied = len(ins) + len(del)
	sc.ins, sc.del = recycle(ins), recycle(del)
	if m != nil {
		clk = m.span.Stamp(obs.StageApply, clk)
	}

	prev := c.snap.mgr.Publish(c.snap.standby)
	c.purgeOverlay(net)
	if m != nil {
		clk = m.span.Stamp(obs.StagePublish, clk)
	}
	c.snap.mgr.WaitDrained(prev)
	if m != nil {
		m.span.Stamp(obs.StageDrain, clk)
	}
	c.snap.standby = prev
	return applied, nIns, nMove, nDel
}

// revRemove drops one occurrence of id from st's rev[p] (callers hold
// the flush mutex, plus rw's write side in locked mode). Emptied ID
// slices go to the freelist so the next revAdd of a fresh point reuses
// them instead of allocating. The freelist is shared across both
// snapshot twins — a slice lives in at most one rev map at a time, so
// recycling between them is safe.
func (c *Collection[ID]) revRemove(st *collState[ID], p geom.Point, id ID) {
	ids := st.rev[p]
	for i, got := range ids {
		if got == id {
			ids[i] = ids[len(ids)-1]
			ids = ids[:len(ids)-1]
			break
		}
	}
	if len(ids) == 0 {
		delete(st.rev, p)
		if cap(ids) > 0 && len(c.revFree) < maxRevFree && !c.opts.DisableScratch {
			clear(ids[:cap(ids)]) // drop stale ID values so nothing is pinned
			c.revFree = append(c.revFree, ids)
		}
	} else {
		st.rev[p] = ids
	}
}

// revAdd appends id to st's rev[p] (same locking as revRemove), drawing
// the backing slice from the freelist when the point is new to the map.
func (c *Collection[ID]) revAdd(st *collState[ID], p geom.Point, id ID) {
	ids, ok := st.rev[p]
	if !ok && len(c.revFree) > 0 {
		ids = c.revFree[len(c.revFree)-1]
		c.revFree = c.revFree[:len(c.revFree)-1]
	}
	st.rev[p] = append(ids, id)
}

// NearbyIDs returns the k objects nearest q (nearest first), resolved to
// their IDs. Ties at the k-th distance — including several objects
// sharing one point — are broken arbitrarily, matching core.Index.KNN.
// Only flushed ops are visible.
func (c *Collection[ID]) NearbyIDs(q geom.Point, k int) []Entry[ID] {
	return c.NearbyIDsAppend(q, k, nil)
}

// NearbyIDsAppend is NearbyIDs with a caller-provided destination: the
// resolved entries are appended to dst and the extended slice returned,
// following the same dst-append contract as core.Index queries (the
// collection keeps no alias to dst). Serving loops reuse one dst across
// requests so warm queries allocate nothing here.
func (c *Collection[ID]) NearbyIDsAppend(q geom.Point, k int, dst []Entry[ID]) []Entry[ID] {
	return c.NearbyIDsAppendCost(q, k, dst, nil)
}

// NearbyIDsAppendCost is NearbyIDsAppend that additionally accounts the
// query's work into cost when non-nil: the pinned epoch, and — when the
// inner index reports per-query cost (shard.Sharded) — the shards
// visited and candidates scanned; otherwise the whole index counts as
// one shard and every geometric hit as a candidate. The slow-query log
// is the intended caller.
func (c *Collection[ID]) NearbyIDsAppendCost(q geom.Point, k int, dst []Entry[ID], cost *obs.QueryCost) []Entry[ID] {
	sc := c.getQueryScratch()
	var st *collState[ID]
	if c.snap.enabled {
		// Pin the published epoch: wait-free against flushes. The Unpin
		// is deferred so a panicking inner index never wedges the
		// writer's drain.
		v := c.snap.mgr.Pin()
		defer c.snap.mgr.Unpin(v)
		st = v.Data
		if cost != nil {
			cost.Epoch = v.Epoch()
		}
	} else {
		c.rw.RLock()
		defer c.rw.RUnlock() // deferred so a panicking inner index never wedges writers
		st = c.live
	}
	if cost != nil && st.costed != nil {
		sc.pts = st.costed.KNNCost(q, k, sc.pts[:0], cost)
	} else {
		sc.pts = st.idx.KNN(q, k, sc.pts[:0])
		if cost != nil {
			cost.Shards++
			cost.Candidates += len(sc.pts)
		}
	}
	dst = c.resolveAppend(st, sc, dst)
	c.putQueryScratch(sc)
	return dst
}

// WithinIDs returns every object inside box (order unspecified),
// resolved to IDs. Only flushed ops are visible.
func (c *Collection[ID]) WithinIDs(box geom.Box) []Entry[ID] {
	return c.WithinIDsAppend(box, nil)
}

// WithinIDsAppend is WithinIDs with a caller-provided destination (see
// NearbyIDsAppend for the contract).
func (c *Collection[ID]) WithinIDsAppend(box geom.Box, dst []Entry[ID]) []Entry[ID] {
	return c.WithinIDsAppendCost(box, dst, nil)
}

// WithinIDsAppendCost is WithinIDsAppend with query-cost accounting
// (see NearbyIDsAppendCost for the contract).
func (c *Collection[ID]) WithinIDsAppendCost(box geom.Box, dst []Entry[ID], cost *obs.QueryCost) []Entry[ID] {
	sc := c.getQueryScratch()
	var st *collState[ID]
	if c.snap.enabled {
		v := c.snap.mgr.Pin()
		defer c.snap.mgr.Unpin(v)
		st = v.Data
		if cost != nil {
			cost.Epoch = v.Epoch()
		}
	} else {
		c.rw.RLock()
		defer c.rw.RUnlock() // deferred so a panicking inner index never wedges writers
		st = c.live
	}
	if cost != nil && st.costed != nil {
		sc.pts = st.costed.RangeListCost(box, sc.pts[:0], cost)
	} else {
		sc.pts = st.idx.RangeList(box, sc.pts[:0])
		if cost != nil {
			cost.Shards++
			cost.Candidates += len(sc.pts)
		}
	}
	dst = c.resolveAppend(st, sc, dst)
	c.putQueryScratch(sc)
	return dst
}

func (c *Collection[ID]) getQueryScratch() *queryScratch {
	if c.opts.DisableScratch {
		return new(queryScratch)
	}
	return c.queryPool.Get().(*queryScratch)
}

func (c *Collection[ID]) putQueryScratch(sc *queryScratch) {
	if !c.opts.DisableScratch {
		c.queryPool.Put(sc)
	}
}

// resolveAppend maps the scratch's hit multiset to entries through st's
// reverse multimap, appending to dst (callers hold rw or a pin on st's
// version). A point stored once per object at it means hits and rev
// lists have equal multiplicity; for the rare points owned by several
// objects, a cursor walks the ID list so duplicate hits resolve to
// distinct objects. Single-owner points — the common case — never touch
// the cursor map.
func (c *Collection[ID]) resolveAppend(st *collState[ID], sc *queryScratch, dst []Entry[ID]) []Entry[ID] {
	cursorUsed := false
	for _, p := range sc.pts {
		ids := st.rev[p]
		switch {
		case len(ids) == 0:
			// Unreachable while the flush invariant holds (Validate
			// checks it); skip rather than fabricate an entry.
		case len(ids) == 1:
			dst = append(dst, Entry[ID]{ID: ids[0], Point: p})
		default:
			if sc.cursor == nil {
				sc.cursor = make(map[geom.Point]int)
			}
			cursorUsed = true
			i := sc.cursor[p]
			if i >= len(ids) {
				continue // see the len(ids) == 0 case
			}
			sc.cursor[p] = i + 1
			dst = append(dst, Entry[ID]{ID: ids[i], Point: p})
		}
	}
	if cursorUsed {
		clear(sc.cursor)
	}
	return dst
}

// Pending returns the number of enqueued, not-yet-flushed ops.
func (c *Collection[ID]) Pending() int {
	c.pend.Lock()
	defer c.pend.Unlock()
	return len(c.pend.ops)
}

// Stats returns a snapshot of the Collection's counters. Counters are
// updated after each flush, so a snapshot racing a flush may lag by that
// one batch. Stats never takes the writer lock, so it does not block
// behind an in-flight flush: in snapshot mode Objects is the published
// epoch's live-object count, in locked mode it is derived from the
// lifetime counters (identical at every flush boundary).
func (c *Collection[ID]) Stats() Stats {
	st := Stats{
		Flushes:       c.flushes.Load(),
		Inserted:      c.inserted.Load(),
		Moved:         c.moved.Load(),
		Removed:       c.removed.Load(),
		Cancelled:     c.cancelled.Load(),
		JournalErrors: c.journalErrs.Load(),
		Pending:       c.Pending(),
		Versions:      1,
	}
	st.Objects = int(st.Inserted) - int(st.Removed)
	if c.snap.enabled {
		v := c.snap.mgr.Pin()
		st.Objects = len(v.Data.fwd)
		c.snap.mgr.Unpin(v)
		st.Epoch = c.snap.mgr.Epoch()
		st.Versions = 2
		st.RetireLag = c.snap.mgr.RetireLag()
	}
	return st
}

// Validate flushes, then checks the transactional-consistency invariant
// between the three committed structures: the index holds exactly one
// point per live object, and the forward and reverse tables are exact
// inverses. Tests and the fuzz harness call it after every tape.
func (c *Collection[ID]) Validate() error {
	c.Flush()
	if c.snap.enabled {
		v := c.snap.mgr.Pin()
		defer c.snap.mgr.Unpin(v)
		return v.Data.validate()
	}
	c.rw.RLock()
	defer c.rw.RUnlock()
	return c.live.validate()
}

func (st *collState[ID]) validate() error {
	if got, want := st.idx.Size(), len(st.fwd); got != want {
		return fmt.Errorf("collection: index stores %d points, %d live objects", got, want)
	}
	nRev := 0
	for p, ids := range st.rev {
		if len(ids) == 0 {
			return fmt.Errorf("collection: empty reverse entry for %v", p)
		}
		nRev += len(ids)
		for _, id := range ids {
			if got, live := st.fwd[id]; !live || got != p {
				return fmt.Errorf("collection: rev[%v] lists %v but fwd says (%v, %t)", p, id, got, live)
			}
		}
	}
	if nRev != len(st.fwd) {
		return fmt.Errorf("collection: reverse multimap holds %d entries, %d live objects", nRev, len(st.fwd))
	}
	return nil
}
