package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	psi "repro"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/wal"
)

// node is one in-process psid server with its own metric registry.
type node struct {
	srv *service.Server
	reg *obs.Registry
	dir string // WAL directory, "" when memory-only
}

// stack is a workload's serving topology: the leader, plus a follower in
// the durable workload. Queries go to read, writes to lead.
type stack struct {
	w    *spec
	lead *node
	foll *node
	read *node
	// Traced stacks decorate the leader's index (trLead) and the read
	// node's (trRead, the same tracer when the leader serves reads).
	trLead, trRead *tracer
	setupS         float64
	recoverS       float64 // the restart's NewDurable, durable only
}

// traceCap is a tracer's span capacity; spans beyond it are counted as
// dropped.
const traceCap = 1 << 20

// tmpRoot is where WAL directories live: inside the working directory,
// so a run writes nothing outside its checkout.
const tmpRoot = ".bench_build/psiperf-tmp"

// newIndex builds the serving index exactly as cmd/psid does: a Sharded
// SPaC-H, one shard per core, Hilbert ranges, recording into reg. With a
// tracer both the Sharded and each SPaC-H child are decorated.
func newIndex(reg *obs.Registry, tr *tracer) core.Index {
	u := geom.UniverseBox(dims, side)
	mk := func(dims int, u geom.Box) core.Index {
		child := psi.ByName("SPaC-H", dims, u)
		if tr != nil {
			return tr.wrap(child, layerTree)
		}
		return child
	}
	idx := core.Index(psi.NewShardedOpts(psi.ShardedOptions{
		Dims:     dims,
		Universe: u,
		Shards:   -1,
		Strategy: psi.ShardHilbert,
		New:      mk,
		Obs:      reg,
	}))
	if tr != nil {
		idx = tr.wrap(idx, layerShard)
	}
	return idx
}

// serveOptions mirrors cmd/psid's defaults: maxbatch 4096, flush
// interval 2ms, snapshot reads on.
func serveOptions(reg *obs.Registry) service.Options {
	return service.Options{
		MaxBatch:      4096,
		FlushInterval: 2 * time.Millisecond,
		Obs:           reg,
	}
}

func startNode(idx core.Index, opts service.Options) (*node, error) {
	srv, err := service.NewDurable(idx, opts)
	if err != nil {
		return nil, err
	}
	if err := srv.Start("127.0.0.1:0", ""); err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	return &node{srv: srv, reg: opts.Obs, dir: opts.WALDir}, nil
}

// load writes the population through the public Collection API (the
// in-process path an embedding binary uses) and flushes it. The
// server's own batch threshold cuts it into windows: one bulk window
// would leave the Collection's netting scratch sized for the whole
// population, and every later flush would pay to clear it.
func load(srv *service.Server, pop []geom.Point) {
	c := srv.Collection()
	for i, p := range pop {
		c.Set(objectID(i), p)
	}
	c.Flush()
}

// setup builds the workload's stack and loads pop into it. The returned
// stack's setupS covers the whole load: for the durable workload that
// is the write through the leader's WAL, the leader's restart (WAL
// recovery) and the follower's catch-up.
func setup(w *spec, pop []geom.Point, traced bool) (*stack, error) {
	st := &stack{w: w}
	var tr *tracer
	if traced {
		tr = newTracer(traceCap)
		st.trLead, st.trRead = tr, tr
	}
	t0 := time.Now()
	if !w.durable {
		reg := obs.New()
		n, err := startNode(newIndex(reg, tr), serveOptions(reg))
		if err != nil {
			return nil, err
		}
		load(n.srv, pop)
		st.lead, st.read = n, n
		st.setupS = time.Since(t0).Seconds()
		return st, nil
	}
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	leadDir, err := os.MkdirTemp(tmpRoot, "lead-")
	if err != nil {
		return nil, err
	}
	follDir, err := os.MkdirTemp(tmpRoot, "foll-")
	if err != nil {
		os.RemoveAll(leadDir)
		return nil, err
	}
	fail := func(err error) (*stack, error) {
		st.close()
		os.RemoveAll(leadDir)
		os.RemoveAll(follDir)
		return nil, err
	}
	leadOpts := func(reg *obs.Registry) service.Options {
		o := serveOptions(reg)
		o.WALDir = leadDir
		o.WALFsync = wal.FsyncAlways
		o.ReplListen = "127.0.0.1:0"
		return o
	}
	// First incarnation: journal the population.
	reg := obs.New()
	first, err := service.NewDurable(newIndex(reg, nil), leadOpts(reg))
	if err != nil {
		return fail(err)
	}
	load(first, pop)
	if err := first.Shutdown(context.Background()); err != nil {
		return fail(fmt.Errorf("first leader shutdown: %w", err))
	}
	// Restart: recovery replays the journaled population.
	reg = obs.New()
	idx := newIndex(reg, tr)
	tr0 := time.Now()
	srv, err := service.NewDurable(idx, leadOpts(reg))
	st.recoverS = time.Since(tr0).Seconds()
	if err != nil {
		return fail(err)
	}
	if err := srv.Start("127.0.0.1:0", ""); err != nil {
		srv.Shutdown(context.Background())
		return fail(err)
	}
	st.lead = &node{srv: srv, reg: reg, dir: leadDir}
	if got := srv.Collection().Len(); got != len(pop) {
		return fail(fmt.Errorf("leader recovered %d objects, want %d", got, len(pop)))
	}
	freg := obs.New()
	fopts := serveOptions(freg)
	fopts.WALDir = follDir
	fopts.WALFsync = wal.FsyncAlways
	fopts.ReplicaOf = srv.ReplAddr().String()
	fopts.ReplID = "psiperf-follower"
	var ftr *tracer
	if traced {
		ftr = newTracer(traceCap)
		st.trRead = ftr
	}
	st.foll, err = startNode(newIndex(freg, ftr), fopts)
	if err != nil {
		return fail(err)
	}
	st.foll.dir = follDir
	st.read = st.foll
	if err := st.waitCaughtUp(30 * time.Second); err != nil {
		return fail(err)
	}
	st.setupS = time.Since(t0).Seconds()
	return st, nil
}

// waitCaughtUp blocks until the follower has applied the leader's last
// journaled window.
func (st *stack) waitCaughtUp(timeout time.Duration) error {
	if st.foll == nil {
		return nil
	}
	deadline := time.Now().Add(timeout)
	for {
		lst, fst := st.lead.srv.Stats(), st.foll.srv.Stats()
		if lst.WAL != nil && fst.Repl != nil && fst.Repl.Follower != nil {
			f := fst.Repl.Follower
			if f.Connected && f.AppliedSeq == lst.WAL.Seq && f.LagWindows == 0 {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return errors.New("follower did not catch up with the leader")
		}
		time.Sleep(time.Millisecond)
	}
}

// lagWindows is how many journaled leader windows the follower has not
// applied yet (0 without a follower).
func (st *stack) lagWindows() uint64 {
	if st.foll == nil {
		return 0
	}
	ls, fs := st.lead.srv.Stats(), st.foll.srv.Stats()
	if ls.WAL == nil || fs.Repl == nil || fs.Repl.Follower == nil {
		return 0
	}
	return ls.WAL.Seq - min(ls.WAL.Seq, fs.Repl.Follower.AppliedSeq)
}

// nodes returns every served node, leader first.
func (st *stack) nodes() []*node {
	if st.foll != nil {
		return []*node{st.lead, st.foll}
	}
	return []*node{st.lead}
}

// close shuts every node down and removes the WAL directories.
func (st *stack) close() {
	for _, n := range []*node{st.foll, st.lead} {
		if n == nil {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		n.srv.Shutdown(ctx)
		cancel()
		if n.dir != "" {
			os.RemoveAll(n.dir)
		}
	}
	st.lead, st.foll, st.read = nil, nil, nil
}

// setupRepeated sets the stack up at least minSetups times, and more
// while the set-ups so far took under setupBudget (a cheap set-up's
// median needs more samples to be steady), and keeps the last one. It
// returns the median set-up time. Earlier stacks are torn down before
// the next is built, so only one population is ever resident.
func setupRepeated(w *spec, pop []geom.Point) (*stack, float64, error) {
	const minSetups, maxSetups, setupBudget = 3, 15, 3 * time.Second
	var st *stack
	var times []float64
	t0 := time.Now()
	for len(times) < minSetups || (len(times) < maxSetups && time.Since(t0) < setupBudget) {
		if st != nil {
			st.close()
			st = nil
			runtime.GC()
		}
		var err error
		if st, err = setup(w, pop, false); err != nil {
			return nil, 0, err
		}
		times = append(times, st.setupS)
	}
	return st, medianFloat(times), nil
}

// heapPerObject is the live heap the stack holds per object per served
// node: heap after a forced GC, minus base (the heap measured before the
// stack existed, which holds the generator's own model).
func (st *stack) heapPerObject(base uint64) float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc-min(base, m.HeapAlloc)) / float64(st.w.objects*len(st.nodes()))
}

func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// removeTmp drops the WAL scratch root once every stack is closed.
func removeTmp() { os.RemoveAll(tmpRoot) }
