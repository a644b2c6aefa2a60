package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/collection"
	"repro/internal/geom"
)

// The load generator is open-loop and pipelined: per connection, a
// sender writes protocol lines on a fixed schedule whether or not
// earlier requests have been answered, and a receiver matches the
// in-order responses against a ring of in-flight records. Every request
// is timed from when it was due, so a stall charges its wait to every
// request queued behind it. Both per-request paths are allocation-free
// (TestRequestPathAllocs): the generator shares a process with the
// server and must not add GC load to it.

type opKind uint8

const (
	opSet opKind = iota
	opNearby
	opWithin
	numOps
)

var opNames = [numOps]string{"set", "nearby", "within"}

// conns is the connection count: two, one per core of the machine the
// benchmark was defined on.
const conns = 2

// ringSize bounds one connection's in-flight requests (a power of two).
// A sender that fills it waits, and its lateness shows in
// loadgen.late_p99_ms.
const ringSize = 1 << 16

// reqRec is one in-flight request.
type reqRec struct {
	due    int64 // ns after the phase base
	pos    geom.Point
	obj    int32
	op     opKind
	marker bool
	end    bool // the phase's closing sentinel
}

// phase is one stretch of load: open-loop at rate, or, when depth is
// set, closed-loop capacity load of a single op.
type phase struct {
	rate        float64       // offered requests per second, all connections
	dur         time.Duration // schedule length
	measureFrom time.Duration // requests due earlier are warm-up
	windows     int           // equal sub-windows the measured stretch is cut into
	markerGap   time.Duration // visibility marker cadence, 0 for none
	// depth > 0 makes the phase closed-loop: every connection whose
	// stream carries op only keeps depth requests of it in flight until
	// dur, each due when it is sent, and the phase counts completions
	// per sub-window instead of keeping latencies. depth is a multiple
	// of capBatch.
	depth int
	only  opKind
}

// window returns the measured sub-window holding t (ns after the phase
// base), or -1 outside the measured stretch.
func (ph *phase) window(t int64) int {
	from := int64(ph.measureFrom)
	if t < from || t >= int64(ph.dur) {
		return -1
	}
	return int((t - from) * int64(ph.windows) / (int64(ph.dur) - from))
}

// stream is one connection's request mix.
type stream struct {
	share               float64 // of the phase rate
	setFrac, nearbyFrac float64
	// Objects this stream may SET: first, first+stride, ... below objects.
	first, stride int
	markers       bool // emits the visibility markers
}

// carries reports whether the stream's mix issues op o.
func (s stream) carries(o opKind) bool {
	switch o {
	case opSet:
		return s.setFrac > 0
	case opNearby:
		return s.nearbyFrac > 0
	}
	return s.setFrac+s.nearbyFrac < 1
}

// connLoad is one connection's generator state. The sender owns rng,
// cur's partition and head; the receiver owns tail and acked's
// partition; the ring is handed over through head.
type connLoad struct {
	g    *gen
	st   stream
	conn net.Conn
	bw   *bufio.Writer
	br   *bufio.Reader
	rng  *rand.Rand
	ring []reqRec
	head atomic.Uint64
	tail atomic.Uint64
	long []byte // reassembly scratch for responses longer than br's buffer

	// Sender-side phase state.
	base       time.Time
	ph         phase
	interval   float64
	nextMarker int64
	markerIdx  int
	sinceMark  int // SETs since the last marker
	// Closed-loop phases: the receiver returns one credit per capBatch
	// responses and closes quit when it stops.
	credit  chan struct{}
	quit    chan struct{}
	settled int // responses since the receiver last returned a credit

	// Per-phase results (receiver-owned except late, sender-owned).
	lat       [numOps][]samples // per measured sub-window
	late      samples
	done      []uint64 // closed-loop completions per measured sub-window
	attempted uint64
	failed    uint64
	inWindow  uint64 // responses received inside the measure window
	respBytes [numOps]uint64
	respCount [numOps]uint64
	firstErr  string
	sendErr   error
	recvErr   error
}

// gen drives every connection of one stack.
type gen struct {
	w     *spec
	init  []geom.Point // initial positions: query centres (read-only)
	cur   []geom.Point // sender-side positions, partitioned by stream
	acked []geom.Point // last acknowledged positions, partitioned likewise
	hop   int64
	box   int64 // WITHIN box side, from spec.withinSide
	conns []*connLoad
	read  *collection.Collection[string]
	// lag is the follower's replication backlog in windows (nil without
	// a follower). A closed-loop SET phase holds it to capMaxLag.
	lag func() uint64
	// inflight counts markers sent but not yet seen by the probe; only
	// connection 0's sender adds to it, so a load-then-add keeps it at
	// most maxMarkers.
	inflight atomic.Int32
	probeCh  chan markerEv
	markID   []string

	visible    []samples // per measured sub-window, by ack time
	probeFails uint64
	probeErr   error
}

type markerEv struct {
	obj int32
	pos geom.Point
	ack int64 // ns after the phase base
}

// newGen dials the stack: in the durable workload connection 0 writes
// to the leader and connection 1 queries the follower; otherwise both
// connections carry the full mix to the single node.
func newGen(st *stack, pop []geom.Point, seed int64) (*gen, error) {
	w := st.w
	g := &gen{
		w:       w,
		init:    pop,
		cur:     append([]geom.Point(nil), pop...),
		acked:   append([]geom.Point(nil), pop...),
		hop:     int64(w.hop * float64(side)),
		box:     w.withinSide(pop),
		read:    st.read.srv.Collection(),
		probeCh: make(chan markerEv, maxMarkers),
	}
	if st.foll != nil {
		g.lag = st.lagWindows
	}
	for i := 0; i < markers; i++ {
		g.markID = append(g.markID, objectID(i))
	}
	streams := make([]stream, conns)
	addrs := make([]string, conns)
	if w.durable {
		q := 1 - w.setFrac
		streams[0] = stream{share: w.setFrac, setFrac: 1, first: markers, stride: 1, markers: true}
		streams[1] = stream{share: q, nearbyFrac: w.nearbyFrac / q}
		addrs[0], addrs[1] = st.lead.srv.Addr().String(), st.read.srv.Addr().String()
	} else {
		for i := range streams {
			streams[i] = stream{share: 1.0 / conns, setFrac: w.setFrac, nearbyFrac: w.nearbyFrac,
				first: markers + i, stride: conns, markers: i == 0}
			addrs[i] = st.lead.srv.Addr().String()
		}
	}
	for i := range streams {
		c, err := net.Dial("tcp", addrs[i])
		if err != nil {
			g.close()
			return nil, err
		}
		g.conns = append(g.conns, &connLoad{
			g:    g,
			st:   streams[i],
			conn: c,
			bw:   bufio.NewWriterSize(c, 64<<10),
			br:   bufio.NewReaderSize(c, 256<<10),
			rng:  rand.New(rand.NewSource(seed*7919 + int64(i))),
			ring: make([]reqRec, ringSize),
			long: make([]byte, 0, 1<<20),
		})
	}
	return g, nil
}

func (g *gen) close() {
	for _, c := range g.conns {
		c.conn.Close()
	}
}

// phaseStats is one phase's merged outcome.
type phaseStats struct {
	ph        phase
	lat       [numOps][]samples
	late      samples
	visible   []samples
	done      []uint64 // closed-loop completions per measured sub-window
	attempted uint64
	failed    uint64
	achieved  float64 // responses per second inside the measure window
	respBytes [numOps]uint64
	respCount [numOps]uint64
	dropped   int
	firstErr  string
}

// run drives one phase to completion: every request sent, every
// response received, and any pending visibility marker resolved.
func (g *gen) run(ph phase) (*phaseStats, error) {
	window := (ph.dur - ph.measureFrom).Seconds()
	base := time.Now().Add(2 * time.Millisecond)
	for _, c := range g.conns {
		expect := int(ph.rate*c.st.share*window*1.25) + 256
		for o := range c.lat {
			c.lat[o] = make([]samples, ph.windows)
			for i := range c.lat[o] {
				c.lat[o][i] = newSamples(expect / ph.windows)
			}
		}
		c.late = newSamples(expect)
		c.done = make([]uint64, ph.windows)
		c.credit, c.quit = make(chan struct{}, ph.depth/capBatch), make(chan struct{})
		for i := 0; i < ph.depth/capBatch; i++ {
			c.credit <- struct{}{}
		}
		c.settled = 0
		c.attempted, c.failed, c.inWindow = 0, 0, 0
		c.respBytes, c.respCount = [numOps]uint64{}, [numOps]uint64{}
		c.firstErr, c.sendErr, c.recvErr = "", nil, nil
		c.base, c.ph = base, ph
		c.interval = 1e9 / (ph.rate * c.st.share)
		c.nextMarker = int64(ph.measureFrom) / 2
		c.sinceMark = 0
	}
	g.visible = make([]samples, ph.windows)
	for i := range g.visible {
		g.visible[i] = newSamples(int(window/max(ph.markerGap.Seconds(), 1e-3))/ph.windows + 64)
	}
	g.probeFails, g.probeErr = 0, nil
	stop := make(chan struct{})
	var probeWG sync.WaitGroup
	if ph.markerGap > 0 {
		probeWG.Add(1)
		go func() { defer probeWG.Done(); g.probeErr = g.probe(base, ph, stop) }()
	}
	var wg sync.WaitGroup
	for _, c := range g.conns {
		wg.Add(2)
		// A failed side closes the connection so its partner unblocks.
		go func() {
			defer wg.Done()
			if c.sendErr = c.send(); c.sendErr != nil {
				c.conn.Close()
			}
		}()
		go func() {
			defer wg.Done()
			defer close(c.quit)
			if c.recvErr = c.recv(); c.recvErr != nil {
				c.conn.Close()
			}
		}()
	}
	wg.Wait()
	close(stop)
	probeWG.Wait()

	ps := &phaseStats{ph: ph, visible: g.visible, done: make([]uint64, ph.windows)}
	ps.failed += g.probeFails
	errs := []error{g.probeErr}
	for _, c := range g.conns {
		errs = append(errs, c.sendErr, c.recvErr)
		for o := range c.lat {
			if ps.lat[o] == nil {
				ps.lat[o] = make([]samples, ph.windows)
			}
			for i := range c.lat[o] {
				ps.lat[o][i].merge(&c.lat[o][i])
				ps.dropped += c.lat[o][i].dropped
			}
			ps.respBytes[o] += c.respBytes[o]
			ps.respCount[o] += c.respCount[o]
		}
		ps.late.merge(&c.late)
		for i, n := range c.done {
			ps.done[i] += n
		}
		ps.dropped += c.late.dropped
		ps.attempted += c.attempted
		ps.failed += c.failed
		ps.achieved += float64(c.inWindow) / window
		if ps.firstErr == "" {
			ps.firstErr = c.firstErr
		}
	}
	for i := range g.visible {
		ps.dropped += g.visible[i].dropped
	}
	return ps, errors.Join(errs...)
}

// mono is the time since base in nanoseconds.
func mono(base time.Time) int64 { return int64(time.Since(base)) }

// send writes the phase's schedule, then the closing sentinel.
func (c *connLoad) send() error {
	if c.ph.depth > 0 {
		return c.sendClosed()
	}
	sl, err := newSleeper()
	if err != nil {
		return err
	}
	defer sl.close()
	dur := int64(c.ph.dur)
	from := int64(c.ph.measureFrom)
	for i := int64(0); ; i++ {
		due := int64(float64(i) * c.interval)
		if due >= dur {
			break
		}
		now := mono(c.base)
		if due > now {
			if c.bw.Buffered() > 0 {
				if err := c.bw.Flush(); err != nil {
					return fmt.Errorf("send: %w", err)
				}
			}
			if d := due - mono(c.base); d > 0 {
				if err := sl.sleep(d); err != nil {
					return err
				}
			}
			now = mono(c.base)
		}
		if due >= from {
			c.late.add(max(now-due, 0))
		}
		if err := c.waitRing(sl); err != nil {
			return err
		}
		h := c.head.Load()
		rec := &c.ring[h&(ringSize-1)]
		c.next(rec, due)
		c.head.Store(h + 1)
		if err := c.appendReq(rec); err != nil {
			return err
		}
	}
	if err := c.waitRing(sl); err != nil {
		return err
	}
	return c.sendEnd()
}

// capMaxLag bounds the follower's backlog, in windows, in a closed-loop
// SET phase; the sender checks it once per credit. Each durable-ack SET
// is a window of its own, and the follower applies windows more slowly
// than the leader acknowledges them: an unthrottled phase leaves a
// backlog that outlasts the run, and evicts windows from the leader's
// ring so that the follower bootstraps.
const capMaxLag = 64

// capBatch is how many requests one closed-loop credit stands for: the
// sender and receiver hand over work in batches, so the phase measures
// the server rather than a goroutine hand-off per request.
const capBatch = 16

// sendClosed keeps the phase's depth of requests in flight until the
// phase ends, then writes the closing sentinel. The ring holds far more
// than depth, so it never fills. A stream that does not carry the
// phase's op sends only the sentinel. With a follower, a SET phase
// pauses while the follower is more than capMaxLag windows behind, so
// it measures the writes the pair sustains.
func (c *connLoad) sendClosed() error {
	dur := int64(c.ph.dur)
	throttle := c.ph.only == opSet && c.g.lag != nil
	for c.st.carries(c.ph.only) {
		for throttle && c.g.lag() > capMaxLag && mono(c.base) < dur {
			if err := c.bw.Flush(); err != nil {
				return fmt.Errorf("send: %w", err)
			}
			time.Sleep(time.Millisecond)
		}
		select {
		case <-c.credit:
		default:
			if err := c.bw.Flush(); err != nil {
				return fmt.Errorf("send: %w", err)
			}
			select {
			case <-c.credit:
			case <-c.quit:
				return errors.New("send: receiver stopped")
			}
		}
		now := mono(c.base)
		if now >= dur {
			break
		}
		for i := 0; i < capBatch; i++ {
			h := c.head.Load()
			rec := &c.ring[h&(ringSize-1)]
			c.next(rec, now)
			c.head.Store(h + 1)
			if err := c.appendReq(rec); err != nil {
				return err
			}
		}
	}
	return c.sendEnd()
}

// sendEnd writes the closing sentinel, whose answer ends the receiver.
func (c *connLoad) sendEnd() error {
	h := c.head.Load()
	c.ring[h&(ringSize-1)] = reqRec{end: true}
	c.head.Store(h + 1)
	c.bw.WriteString(`{"op":"GET","id":"~end"}` + "\n")
	if err := c.bw.Flush(); err != nil {
		return fmt.Errorf("send: %w", err)
	}
	return nil
}

// waitRing blocks while the ring is full.
func (c *connLoad) waitRing(sl *sleeper) error {
	for c.head.Load()-c.tail.Load() >= ringSize {
		if err := c.bw.Flush(); err != nil {
			return fmt.Errorf("send: %w", err)
		}
		if err := sl.sleep(50_000); err != nil {
			return err
		}
	}
	return nil
}

// next fills rec with the request due at due, drawn from the stream's
// mix, or of the phase's single op in a closed-loop phase. SET targets
// come from the stream's own partition, so per-object order on the wire
// is per-connection order; query centres are initial object positions.
func (c *connLoad) next(rec *reqRec, due int64) {
	g := c.g
	*rec = reqRec{due: due, op: c.ph.only}
	if c.ph.depth == 0 {
		switch u := c.rng.Float64(); {
		case u < c.st.setFrac:
			rec.op = opSet
		case u < c.st.setFrac+c.st.nearbyFrac:
			rec.op = opNearby
		default:
			rec.op = opWithin
		}
	}
	switch rec.op {
	case opSet:
		c.sinceMark++
		if c.st.markers && c.ph.markerGap > 0 && due >= c.nextMarker && c.sinceMark > markerEvery && g.inflight.Load() < maxMarkers {
			c.sinceMark = 0
			g.inflight.Add(1)
			rec.obj = int32(c.markerIdx % markers)
			rec.marker = true
			c.markerIdx++
			c.nextMarker = due + int64(c.ph.markerGap)
		} else {
			n := (g.w.objects - c.st.first + c.st.stride - 1) / c.st.stride
			rec.obj = int32(c.st.first + c.st.stride*c.rng.Intn(n))
		}
		rec.pos = hopped(c.rng, g.cur[rec.obj], g.hop)
		g.cur[rec.obj] = rec.pos
	default:
		rec.pos = g.init[c.rng.Intn(len(g.init))]
	}
}

// appendReq encodes rec as one protocol line into the write buffer.
func (c *connLoad) appendReq(rec *reqRec) error {
	if c.bw.Available() < maxReqLine {
		if err := c.bw.Flush(); err != nil {
			return fmt.Errorf("send: %w", err)
		}
	}
	b := c.bw.AvailableBuffer()
	switch rec.op {
	case opSet:
		b = append(b, `{"op":"SET","id":"`...)
		b = appendObjectID(b, rec.obj)
		b = append(b, `","p":`...)
		b = appendPoint(b, rec.pos)
		b = append(b, "}\n"...)
	case opNearby:
		b = append(b, `{"op":"NEARBY","p":`...)
		b = appendPoint(b, rec.pos)
		b = append(b, `,"k":`...)
		b = appendUint(b, knnK)
		b = append(b, "}\n"...)
	case opWithin:
		box := queryBox(rec.pos, c.g.box)
		b = append(b, `{"op":"WITHIN","lo":`...)
		b = appendPoint(b, box.Lo)
		b = append(b, `,"hi":`...)
		b = appendPoint(b, box.Hi)
		b = append(b, "}\n"...)
	}
	_, err := c.bw.Write(b)
	return err
}

func appendPoint(b []byte, p geom.Point) []byte {
	b = append(b, '[')
	for d := 0; d < dims; d++ {
		if d > 0 {
			b = append(b, ',')
		}
		b = appendInt(b, p[d])
	}
	return append(b, ']')
}

// maxReqLine bounds one encoded request, so appendReq always encodes
// into the write buffer's free space.
const maxReqLine = 256

var (
	okPrefix = []byte(`{"ok":true`)
	idKey    = []byte(`"id":`)
)

// recv matches responses to the ring until the sentinel's answer.
func (c *connLoad) recv() error {
	for {
		line, err := c.readLine()
		if err != nil {
			return fmt.Errorf("recv: %w", err)
		}
		t := c.tail.Load()
		if t >= c.head.Load() {
			return errors.New("recv: response without a request")
		}
		rec := &c.ring[t&(ringSize-1)]
		end := rec.end
		if !end {
			c.account(rec, line, mono(c.base))
		}
		c.tail.Store(t + 1)
		if end {
			return nil
		}
	}
}

// readLine returns the next response line, valid until the next call.
func (c *connLoad) readLine() ([]byte, error) {
	line, err := c.br.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return line, err
	}
	buf := append(c.long[:0], line...)
	for err == bufio.ErrBufferFull {
		line, err = c.br.ReadSlice('\n')
		buf = append(buf, line...)
	}
	if cap(buf) <= 16<<20 {
		c.long = buf[:0]
	}
	return buf, err
}

// account checks one response and records its latency from due time.
func (c *connLoad) account(rec *reqRec, line []byte, now int64) {
	c.attempted++
	ok := bytes.HasPrefix(line, okPrefix)
	if ok && rec.op == opNearby && bytes.Count(line, idKey) != knnK {
		ok = false
	}
	c.respBytes[rec.op] += uint64(len(line))
	c.respCount[rec.op]++
	if !ok {
		c.failed++
		if c.firstErr == "" {
			c.firstErr = fmt.Sprintf("%s: %s", opNames[rec.op], bytes.TrimSpace(line))
		}
	}
	if rec.op == opSet && ok {
		c.g.acked[rec.obj] = rec.pos
	}
	if rec.marker {
		if ok {
			c.g.probeCh <- markerEv{obj: rec.obj, pos: rec.pos, ack: now}
		} else {
			c.g.inflight.Add(-1)
		}
	}
	if now >= int64(c.ph.measureFrom) && now < int64(c.ph.dur) {
		c.inWindow++
	}
	if c.ph.depth > 0 {
		if w := c.ph.window(now); w >= 0 {
			c.done[w]++
		}
		if c.settled++; c.settled == capBatch {
			c.settled = 0
			c.credit <- struct{}{}
		}
		return
	}
	if w := c.ph.window(rec.due); w >= 0 {
		c.lat[rec.op][w].add(now - rec.due)
	}
}

// probePoll is the visibility probe's polling interval (ns).
const probePoll = 200_000

// markerEvery is how many regular SETs a marker follows at least, so
// markers (which move only the reserved objects) stay a small share of
// the SET traffic.
const markerEvery = 3

// maxMarkers bounds the visibility markers in flight. It is far below
// the marker object count, so a marker object is never reused while an
// earlier marker on it is still pending.
const maxMarkers = 4

// probeTimeout bounds one marker's wait for visibility; a marker never
// seen counts as a failed request.
const probeTimeout = 5 * time.Second

// probe waits for each acknowledged marker SET to become visible to an
// in-process WithinIDsAppend on the node the workload reads from.
func (g *gen) probe(base time.Time, ph phase, stop chan struct{}) error {
	sl, err := newSleeper()
	if err != nil {
		return err
	}
	defer sl.close()
	dst := make([]collection.Entry[string], 0, 64)
	pending := make([]markerEv, 0, maxMarkers)
	for {
		if len(pending) == 0 {
			select {
			case ev := <-g.probeCh:
				pending = append(pending, ev)
			case <-stop:
				// The receivers are done: a marker acknowledged last is
				// already in the channel.
				select {
				case ev := <-g.probeCh:
					pending = append(pending, ev)
				default:
					return nil
				}
			}
		}
		for more := true; more; {
			select {
			case ev := <-g.probeCh:
				pending = append(pending, ev)
			default:
				more = false
			}
		}
		kept := pending[:0]
		for _, ev := range pending {
			dst = g.read.WithinIDsAppend(geom.BoxOf(ev.pos, ev.pos), dst[:0])
			now := mono(base)
			switch {
			case seen(dst, g.markID[ev.obj]):
				if w := ph.window(ev.ack); w >= 0 {
					g.visible[w].add(now - ev.ack)
				}
				g.inflight.Add(-1)
			case now-ev.ack > int64(probeTimeout):
				g.probeFails++
				g.inflight.Add(-1)
			default:
				kept = append(kept, ev)
			}
		}
		pending = kept
		if len(pending) > 0 {
			if err := sl.sleep(probePoll); err != nil {
				return err
			}
		}
	}
}

func seen(es []collection.Entry[string], id string) bool {
	for _, e := range es {
		if e.ID == id {
			return true
		}
	}
	return false
}
