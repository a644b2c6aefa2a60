package main

import (
	"bufio"
	"io"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/workload"
)

func TestQuantileNearestRank(t *testing.T) {
	v := make([]int64, 100)
	for i := range v {
		v[i] = int64(100 - i) // unsorted on purpose
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.01, 1}, {0.5, 50}, {0.505, 51}, {0.99, 99}, {1, 100}} {
		if got := quantile(v, c.q); got != c.want {
			t.Errorf("quantile(1..100, %v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := quantile([]int64{7}, 0.99); got != 7 {
		t.Errorf("single sample p99 = %d, want 7", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty p50 = %d, want 0", got)
	}
}

// TestQuantileResolvesTenPercent pins that exact quantiles see a 10%
// latency shift, which power-of-two histogram buckets cannot resolve.
func TestQuantileResolvesTenPercent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	base := make([]int64, 10000)
	shifted := make([]int64, len(base))
	for i := range base {
		base[i] = 100_000 + rng.Int63n(100_000) // 100-200µs
		shifted[i] = base[i] * 11 / 10
	}
	for _, q := range []float64{0.5, 0.99} {
		b, s := quantile(base, q), quantile(shifted, q)
		if s != b*11/10 {
			t.Errorf("q%v: shifted %d, want 1.1 * %d", q, s, b)
		}
	}
}

func TestWindowedMedianOfQuantiles(t *testing.T) {
	// Twenty windows of 500 samples: ten groups of two windows each.
	// Window i holds 1..500 ms scaled by (i/2+1), so group g's p50 is
	// 250*(g+1) ms; the median of the ten groups is that of g=4 and g=5.
	ws := make([]samples, 20)
	for i := range ws {
		ws[i] = newSamples(500)
		for j := int64(1); j <= 500; j++ {
			ws[i].add(j * int64(i/2+1) * 1e6)
		}
	}
	if got := windowed(ws, 0.5); got != (1250+1500)/2 {
		t.Errorf("windowed p50 = %v ms, want 1375", got)
	}
	if got := count(ws); got != 10000 {
		t.Errorf("count = %d, want 10000", got)
	}
	// Too few samples for two groups of minGroup: one pooled quantile.
	few := []samples{newSamples(10), newSamples(10)}
	for j := int64(1); j <= 10; j++ {
		few[0].add(j * 1e6)
		few[1].add((j + 10) * 1e6)
	}
	if got := windowed(few, 0.99); got != 20 {
		t.Errorf("pooled p99 = %v ms, want 20", got)
	}
	full := newSamples(1)
	full.add(1)
	full.add(2)
	if len(full.v) != 1 || full.dropped != 1 {
		t.Errorf("full buffer kept %d values, dropped %d; want 1 and 1", len(full.v), full.dropped)
	}
}

// loopReader yields the same response line forever.
type loopReader struct {
	line []byte
	off  int
}

func (r *loopReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		c := copy(p[n:], r.line[r.off:])
		n += c
		r.off = (r.off + c) % len(r.line)
	}
	return n, nil
}

func testConn(w *spec) *connLoad {
	pop := make([]geom.Point, w.objects)
	for i := range pop {
		pop[i] = geom.Point{int64(i) * 1000, int64(i) * 500}
	}
	g := &gen{w: w, init: pop, cur: append([]geom.Point(nil), pop...),
		acked: append([]geom.Point(nil), pop...), hop: 1000, box: 10_000_000, probeCh: make(chan markerEv, maxMarkers)}
	c := &connLoad{
		g:    g,
		st:   stream{share: 1, setFrac: w.setFrac, nearbyFrac: w.nearbyFrac, first: markers, stride: 1},
		bw:   bufio.NewWriterSize(io.Discard, 64<<10),
		rng:  rand.New(rand.NewSource(1)),
		ring: make([]reqRec, ringSize),
		long: make([]byte, 0, 1<<20),
		ph:   phase{dur: time.Hour, windows: 1},
	}
	for o := range c.lat {
		c.lat[o] = []samples{newSamples(1 << 16)}
	}
	c.late = newSamples(1 << 16)
	return c
}

// TestRequestPathAllocs pins that the generator's per-request send and
// receive paths allocate nothing: it shares a process with the server.
func TestRequestPathAllocs(t *testing.T) {
	w := &spec{name: "t", objects: 1000, setFrac: 0.4, nearbyFrac: 0.3, hop: 0.001, hits: 10}
	c := testConn(w)
	var due int64
	send := testing.AllocsPerRun(2000, func() {
		rec := &c.ring[due&(ringSize-1)]
		c.next(rec, due)
		if err := c.appendReq(rec); err != nil {
			t.Fatal(err)
		}
		due += 1000
	})
	if send != 0 {
		t.Errorf("send path: %v allocs per request, want 0", send)
	}

	hit := `{"id":"o12","p":[1,2]}`
	nearby := `{"ok":true,"hits":[` + hit
	for i := 1; i < knnK; i++ {
		nearby += "," + hit
	}
	nearby += "]}\n"
	for _, tc := range []struct {
		op   opKind
		line string
	}{{opSet, "{\"ok\":true}\n"}, {opNearby, nearby}, {opWithin, nearby}} {
		c.br = bufio.NewReaderSize(&loopReader{line: []byte(tc.line)}, 256<<10)
		rec := reqRec{op: tc.op, obj: markers + 1}
		recv := testing.AllocsPerRun(2000, func() {
			line, err := c.readLine()
			if err != nil {
				t.Fatal(err)
			}
			c.account(&rec, line, 5)
		})
		if recv != 0 {
			t.Errorf("receive path (%s): %v allocs per response, want 0", opNames[tc.op], recv)
		}
	}
	if c.failed != 0 {
		t.Errorf("%d well-formed responses counted as failed (%s)", c.failed, c.firstErr)
	}
}

// TestAccountRejectsWrongAnswers pins that errors and short NEARBY
// answers count as failures.
func TestAccountRejectsWrongAnswers(t *testing.T) {
	c := testConn(&spec{name: "t", objects: 100})
	c.account(&reqRec{op: opSet}, []byte(`{"ok":false,"code":"bad_request","err":"x"}`), 1)
	c.account(&reqRec{op: opNearby}, []byte(`{"ok":true,"hits":[{"id":"o1","p":[1,2]}]}`), 1)
	if c.failed != 2 || c.attempted != 2 {
		t.Errorf("failed %d of %d, want 2 of 2", c.failed, c.attempted)
	}
}

func TestLateGeneratorIsInvalid(t *testing.T) {
	w := &spec{name: "t", limitMs: 5}
	mk := func(lateMs float64, achieved float64) *phaseStats {
		ps := &phaseStats{ph: phase{rate: 1000}, achieved: achieved, late: newSamples(100)}
		for i := 0; i < 100; i++ {
			ps.late.add(int64(lateMs * 1e6))
		}
		return ps
	}
	if err := valid(w, mk(0.1, 1000)); err != nil {
		t.Errorf("on-schedule phase rejected: %v", err)
	}
	if err := valid(w, mk(2, 1000)); err == nil {
		t.Error("phase with late p50 over a quarter of the limit accepted")
	}
	if err := valid(w, mk(0.1, 900)); err == nil {
		t.Error("phase achieving 90% of its offered rate accepted")
	}
}

func TestSelfTime(t *testing.T) {
	parents := []span{{start: 0, end: 100}, {start: 200, end: 260}}
	children := []span{{start: 10, end: 40}, {start: 30, end: 60}, {start: 70, end: 80}, {start: 210, end: 230}}
	// Parent 0: union of children 10-60 and 70-80 covers 60 of 100.
	// Parent 1: 20 of 60 covered.
	if got, want := selfTime(parents, children), (40.0+40.0)/2; got != want {
		t.Errorf("selfTime = %v, want %v", got, want)
	}
}

// TestAttributedDetectsMissingLayer pins that a layer whose spans are
// missing leaves its time unattributed instead of being absorbed by its
// parent: with every layer recorded the spans explain late + dispatch,
// and dropping the child or the shard spans explains less.
func TestAttributedDetectsMissingLayer(t *testing.T) {
	shard := []span{{start: 0, end: 100}, {start: 200, end: 260}}
	tree := []span{{start: 10, end: 40}, {start: 30, end: 60}, {start: 210, end: 230}}
	const late, dispatch = 5.0, 120.0
	cases := []struct {
		name        string
		n           int
		shard, tree []span
		want        float64
	}{
		{"all layers", 2, shard, tree, late + dispatch},
		{"no child spans", 2, shard, nil, late + dispatch - 80},
		{"no shard spans", 2, nil, tree, late},
		{"half the requests traced", 4, shard, tree, late + dispatch/2},
		{"no dispatch histogram", 0, shard, tree, late},
	}
	for _, c := range cases {
		if got := attributed(late, dispatch, c.n, slices.Clone(c.shard), slices.Clone(c.tree)); got != c.want {
			t.Errorf("%s: attributed = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestTracedStackEquivalence pins that the decorated stack is the same
// program as the bare one: snapshot reads on, epochs advancing one per
// window, and each window's shard BatchDiff inside the collection's
// apply stage.
func TestTracedStackEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const windowOps, nWindows = 300, 8
	var ops []geom.Point
	for i := 0; i < windowOps*nWindows; i++ {
		ops = append(ops, geom.Point{rng.Int63n(side), rng.Int63n(side)})
	}
	for _, traced := range []bool{false, true} {
		reg := obs.New()
		var tr *tracer
		if traced {
			tr = newTracer(1 << 16)
		}
		opts := serveOptions(reg)
		opts.FlushInterval = -1 // windows are cut by the test alone
		srv := service.New(newIndex(reg, tr), opts)
		c := srv.Collection()
		if st := c.Stats(); st.Versions != 2 {
			t.Fatalf("traced=%v: %d state versions, want 2 (snapshot reads)", traced, st.Versions)
		}
		for win := 0; win < nWindows; win++ {
			before := c.Epoch()
			for i := 0; i < windowOps; i++ {
				// Objects move between windows, so every window has
				// deletes and inserts.
				c.Set(objectID(i), ops[win*windowOps+i])
			}
			c.Flush()
			if got := c.Epoch(); got != before+1 {
				t.Errorf("traced=%v window %d: epoch %d -> %d, want +1", traced, win, before, got)
			}
		}
		if traced {
			var windows []obs.FlushSpan
			for _, sp := range reg.FlushTrace().Snapshot() {
				if sp.Layer == "collection" {
					windows = append(windows, sp)
				}
			}
			var diffs []span
			for _, s := range tr.recorded() {
				if s.layer == layerShard && s.kind == kindBatchDiff {
					diffs = append(diffs, s)
				}
			}
			// Each snapshot-mode window calls the Sharded twice: the
			// standby's catch-up replay, then the window's own apply.
			if len(diffs) != 2*len(windows) || len(windows) != nWindows {
				t.Fatalf("%d shard BatchDiffs for %d windows, want %d windows and two calls each", len(diffs), len(windows), nWindows)
			}
			for i, w := range windows {
				apply := diffs[2*i+1]
				if d := apply.end - apply.start; d > w.Stages[obs.StageApply] {
					t.Errorf("window %d: shard BatchDiff %dns exceeds collection apply %dns", i, d, w.Stages[obs.StageApply])
				}
				if int(apply.n) != w.NettedOps {
					t.Errorf("window %d: shard BatchDiff applied %d points, collection netted %d", i, apply.n, w.NettedOps)
				}
			}
		}
		srv.Shutdown(t.Context())
	}
}

// TestWithinSideHoldsHits pins that the WITHIN box is sized per
// population: different Varden seeds get different sides, each holding
// the target count.
func TestWithinSideHoldsHits(t *testing.T) {
	w := &spec{name: "t", objects: 50_000, dist: workload.Varden, hits: 40}
	var sides []int64
	for seed := int64(1); seed <= 3; seed++ {
		pop := w.population(seed)
		s := w.withinSide(pop)
		if got := gridHits(pop, float64(s)); got < 0.95*w.hits || got > 1.05*w.hits {
			t.Errorf("seed %d: side %d holds %.1f objects, want %.0f within 5%%", seed, s, got, w.hits)
		}
		sides = append(sides, s)
	}
	if sides[0] == sides[1] && sides[1] == sides[2] {
		t.Errorf("sides %v do not depend on the population", sides)
	}
}

// TestClosedLoopAccounting pins that a closed-loop phase counts
// completions instead of keeping latencies, returns one credit per
// capBatch responses, and allocates nothing per response.
func TestClosedLoopAccounting(t *testing.T) {
	c := testConn(&spec{name: "t", objects: 100})
	c.ph = phase{dur: time.Hour, windows: 1, depth: capDepth, only: opSet}
	c.done = make([]uint64, 1)
	c.credit = make(chan struct{}, capDepth/capBatch)
	rec := reqRec{op: opSet, obj: markers + 1}
	ok := []byte("{\"ok\":true}\n")
	allocs := testing.AllocsPerRun(capBatch*4, func() {
		c.account(&rec, ok, 5)
		if len(c.credit) == cap(c.credit) {
			for len(c.credit) > 0 {
				<-c.credit
			}
		}
	})
	if allocs != 0 {
		t.Errorf("closed-loop receive path: %v allocs per response, want 0", allocs)
	}
	c.done[0], c.settled = 0, 0
	for len(c.credit) > 0 {
		<-c.credit
	}
	for i := 0; i < 2*capBatch+1; i++ {
		c.account(&rec, ok, 5)
	}
	if c.done[0] != 2*capBatch+1 || len(c.credit) != 2 {
		t.Errorf("done %d, credits %d; want %d and 2", c.done[0], len(c.credit), 2*capBatch+1)
	}
	if n := count(c.lat[opSet]); n != 0 {
		t.Errorf("closed-loop phase kept %d latency samples", n)
	}
}

// TestStreamCarries pins which ops each durable stream issues in a
// closed-loop phase: SETs only to the leader, queries only to the
// follower.
func TestStreamCarries(t *testing.T) {
	writer := stream{setFrac: 1}
	reader := stream{nearbyFrac: 0.5}
	mixed := stream{setFrac: 0.9, nearbyFrac: 0.05}
	for _, c := range []struct {
		s    stream
		want [numOps]bool
	}{{writer, [numOps]bool{true, false, false}}, {reader, [numOps]bool{false, true, true}}, {mixed, [numOps]bool{true, true, true}}} {
		for o := opKind(0); o < numOps; o++ {
			if got := c.s.carries(o); got != c.want[o] {
				t.Errorf("%+v carries %s = %v, want %v", c.s, opNames[o], got, c.want[o])
			}
		}
	}
}
