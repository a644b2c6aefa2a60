package collection

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/wal"
)

// TestBulkWindowReleasesScratch pins the retention bound: a window of
// more than maxRetainedWindow ops — a bootstrap, a WAL recovery — must
// not leave population-sized flush scratch behind, and the windows after
// it must be back on the zero-alloc path. Covered in locked mode, in
// snapshot mode (where the bulk window is also saved for the standby's
// catch-up), and with a journal hook (whose window buffer is scratch
// too).
func TestBulkWindowReleasesScratch(t *testing.T) {
	const bulk = 2 * maxRetainedWindow
	const n = 512
	mk := func() core.Index { return core.NewNull(2) }
	modes := []struct {
		name              string
		snapshot, journal bool
	}{
		{"locked", false, false},
		{"snapshot", true, false},
		{"snapshot+journal", true, true},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			opts := Options{MaxBatch: 1 << 30}
			if m.snapshot {
				opts.Snapshot = mk
			}
			c := New[int](mk(), opts)
			defer c.Close()
			journaled := 0
			if m.journal {
				c.SetJournal(func(ops []wal.Op[int]) error {
					journaled += len(ops)
					return nil
				})
			}
			bulkOverlay := reflect.ValueOf(c.pend.overlay).UnsafePointer()
			for i := range bulk {
				c.Set(i, geom.Pt2(int64(i), int64(i)))
			}
			if got := c.Flush(); got != bulk {
				t.Fatalf("bulk Flush applied %d, want %d", got, bulk)
			}
			if m.journal && journaled != bulk {
				t.Fatalf("journal saw %d ops, want %d", journaled, bulk)
			}

			bounded := func(what string, capacity int) {
				t.Helper()
				if capacity > maxRetainedWindow {
					t.Errorf("%s retains capacity %d after a %d-op window, want <= %d", what, capacity, bulk, maxRetainedWindow)
				}
			}
			sc := &c.scratch
			if sc.slot != nil {
				t.Errorf("slot map retained after a %d-op window", bulk)
			}
			bounded("netted slice", cap(sc.net))
			bounded("spare tape", cap(sc.spare))
			bounded("pending tape", cap(c.pend.ops))
			bounded("ins buffer", cap(sc.ins))
			bounded("del buffer", cap(sc.del))
			bounded("journal buffer", cap(sc.jops))
			if reflect.ValueOf(c.pend.overlay).UnsafePointer() == bulkOverlay {
				t.Errorf("emptied overlay kept after a %d-op window", bulk)
			}
			if err := c.Validate(); err != nil {
				t.Fatal(err)
			}

			// The first warm window replays the bulk one on the standby
			// twin in snapshot mode, which must then let it go.
			pos := make([]geom.Point, n)
			for i := range pos {
				pos[i] = geom.Pt2(int64(i)*17+5, int64(i)*29+3)
			}
			window := func() {
				for i, p := range pos {
					c.Set(i, p)
				}
				c.Flush()
			}
			window()
			bounded("saved ops", cap(c.snap.savedOps))
			bounded("saved ins", cap(c.snap.savedIns))
			bounded("saved del", cap(c.snap.savedDel))
			bounded("netted slice", cap(sc.net))
			if err := c.Validate(); err != nil {
				t.Fatal(err)
			}

			window()
			if raceEnabled {
				return // race instrumentation allocates
			}
			if allocs := testing.AllocsPerRun(50, window); allocs != 0 {
				t.Fatalf("warm %d-op window after a bulk window allocates %.2f/op, want 0", n, allocs)
			}
			if err := c.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestJournalWindowOrder pins the netted window's order: IDs appear in
// the order they were first enqueued in the window, each carrying its
// last write, in the journal hook and in the index diff alike. The
// order depends only on the enqueue history — never on map iteration —
// so two Collections fed the same window (a leader and its follower)
// journal byte-identical WAL records, in either read mode.
func TestJournalWindowOrder(t *testing.T) {
	x := make(map[string]int64) // a distinct column per ID
	var first, second []string
	for i := range 64 {
		first = append(first, fmt.Sprintf("old%d", i))
		second = append(second, fmt.Sprintf("new%d", i))
		x[first[i]], x[second[i]] = int64(i), int64(64+i)
	}
	pt := func(id string, gen int64) geom.Point { return geom.Pt2(x[id], gen) }
	run := func(t *testing.T, opts Options, diffs *[]diffRec) []byte {
		t.Helper()
		inner := core.Index(core.NewBruteForce(2))
		if diffs != nil {
			inner = &diffRecorder{Index: inner, log: diffs}
		}
		c := New[string](inner, opts)
		defer c.Close()
		for _, id := range first {
			c.Set(id, pt(id, 0))
		}
		c.Flush()
		var journal []wal.Op[string]
		c.SetJournal(func(ops []wal.Op[string]) error {
			journal = append(journal[:0], ops...)
			return nil
		})
		// Interleave: new IDs, moves of old IDs, a re-move, removals of
		// a live and of a never-seen ID. Old IDs are touched in reverse
		// so first-enqueue order differs from first-window order.
		var want []wal.Op[string]
		for i := range 64 {
			o, n := first[63-i], second[i]
			c.Set(n, pt(n, 1))
			c.Set(o, pt(o, 1))
			want = append(want, wal.Op[string]{ID: n, P: pt(n, 1)})
			switch i % 4 {
			case 0:
				c.Remove(o)
				want = append(want, wal.Op[string]{ID: o, Del: true})
			case 1:
				c.Set(o, pt(o, 2)) // last write wins, first slot kept
				want = append(want, wal.Op[string]{ID: o, P: pt(o, 2)})
			default:
				want = append(want, wal.Op[string]{ID: o, P: pt(o, 1)})
			}
		}
		c.Remove("ghost")
		want = append(want, wal.Op[string]{ID: "ghost", Del: true})
		c.Flush()
		if !slices.Equal(journal, want) {
			t.Fatalf("journal window:\n got %v\nwant %v", journal, want)
		}
		if diffs != nil {
			// The diff lists the window's index changes in the same order:
			// every old ID leaves its first-window point, every surviving
			// op inserts its last write, and the ghost changes nothing.
			var ins, del []geom.Point
			for _, o := range want {
				if strings.HasPrefix(o.ID, "old") {
					del = append(del, pt(o.ID, 0))
				}
				if !o.Del {
					ins = append(ins, o.P)
				}
			}
			got := (*diffs)[len(*diffs)-1]
			if !slices.Equal(got.ins, ins) || !slices.Equal(got.del, del) {
				t.Fatalf("index diff out of window order:\n got ins %v del %v\nwant ins %v del %v", got.ins, got.del, ins, del)
			}
		}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		return wal.EncodeWindowPayload(nil, wal.StringCodec{}, 1, journal)
	}
	var diffs []diffRec
	leader := run(t, Options{MaxBatch: 1 << 20}, &diffs)
	mk := func() core.Index { return core.NewBruteForce(2) }
	follower := run(t, Options{MaxBatch: 1 << 20, Snapshot: mk}, nil)
	if !bytes.Equal(leader, follower) {
		t.Fatal("the same window journals different WAL records in locked and snapshot mode")
	}
}

// diffRecorder copies every BatchDiff it forwards into log.
type diffRecorder struct {
	core.Index
	log *[]diffRec
}

type diffRec struct{ ins, del []geom.Point }

func (r *diffRecorder) BatchDiff(ins, del []geom.Point) {
	*r.log = append(*r.log, diffRec{slices.Clone(ins), slices.Clone(del)})
	r.Index.BatchDiff(ins, del)
}

// BenchmarkFlushAfterBulkWindow times 1-op windows on a Collection whose
// first window bulk-loaded 200k IDs — the shape of a replication
// follower after a snapshot bootstrap, or of a server after WAL
// recovery. A window must cost in proportion to itself, not to the
// largest window the Collection has ever flushed.
func BenchmarkFlushAfterBulkWindow(b *testing.B) {
	const n = 200_000
	modes := []struct {
		name string
		opts Options
	}{
		{"locked", Options{MaxBatch: 1 << 30}},
		{"snapshot", Options{MaxBatch: 1 << 30, Snapshot: newSPaCH}},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			pt := func() geom.Point { return geom.Pt2(rng.Int63n(side), rng.Int63n(side)) }
			c := New[int](newSPaCH(), m.opts)
			defer c.Close()
			for i := range n {
				c.Set(i, pt())
			}
			c.Flush()
			// In snapshot mode the next window replays the bulk one on the
			// standby twin; keep that catch-up out of the timed loop.
			for i := range 2 {
				c.Set(i, pt())
				c.Flush()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := range b.N {
				c.Set(i%n, pt())
				c.Flush()
			}
		})
	}
}
