package store

import (
	"repro/internal/obs"
)

// storeMetrics is the Store's observability hook set, created once in
// New when Options.Obs is given. The exposed counters read the Store's
// own atomics through CounterFuncs, so flush accounting costs nothing
// extra; span is the persistent flush-span scratch (guarded by flushMu)
// that keeps span recording allocation-free.
type storeMetrics struct {
	trace    *obs.FlushTrace
	flushDur *obs.Hist
	span     obs.FlushSpan
}

func newStoreMetrics(r *obs.Registry, s *Store) *storeMetrics {
	layer := obs.Label{Key: "layer", Value: "store"}
	r.CounterFunc("psi_flush_total",
		"Flush windows applied to the index.",
		s.flushes.Load, layer)
	r.CounterFunc("psi_flush_ops_raw_total",
		"Mutations entering flush windows before netting.",
		s.rawOps.Load, layer)
	r.CounterFunc("psi_flush_ops_netted_total",
		"Index mutations surviving netting (applied inserts plus deletes).",
		func() uint64 { return s.inserted.Load() + s.deleted.Load() }, layer)
	r.CounterFunc("psi_flush_ops_cancelled_total",
		"Insert/delete pairs netted out before reaching the index.",
		s.cancelled.Load, layer)
	return &storeMetrics{
		trace: r.FlushTrace(),
		flushDur: r.Histogram("psi_flush_duration_ns",
			"Flush wall time in nanoseconds, summed over pipeline stages.",
			layer),
	}
}
