package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/service"
)

// oracleQueries is the fixed count of NEARBY and of WITHIN answers
// checked against brute force at the end of every run.
const oracleQueries = 24

// verdict is the oracle's outcome: each check is one attempt, each
// mismatch one failure.
type verdict struct {
	attempted, failed uint64
	problems          []string
}

func (v *verdict) check(ok bool, format string, args ...any) {
	v.attempted++
	if !ok {
		v.failed++
		v.problems = append(v.problems, fmt.Sprintf(format, args...))
	}
}

// quiesce flushes the leader over the wire and waits for the follower
// to apply the last window.
func quiesce(st *stack) error {
	cl, err := service.Dial(st.lead.srv.Addr().String())
	if err != nil {
		return err
	}
	defer cl.Close()
	if _, err := cl.Flush(); err != nil {
		return fmt.Errorf("FLUSH: %w", err)
	}
	return st.waitCaughtUp(30 * time.Second)
}

// oracle checks the quiesced stack against the generator's model:
// every object's last acknowledged position equals GET on each node,
// Collection.Validate holds on each node, a fixed sample of NEARBY and
// WITHIN answers on the read node equals brute force over the model,
// and the follower bootstrapped nothing during the timed phase
// (bootBefore is its bootstrap count when that phase began).
func oracle(st *stack, g *gen, seed int64, bootBefore float64) verdict {
	var v verdict
	if err := quiesce(st); err != nil {
		v.check(false, "quiesce: %v", err)
		return v
	}
	for _, n := range st.nodes() {
		c := n.srv.Collection()
		bad, first := 0, -1
		for i, want := range g.acked {
			if got, ok := c.Get(objectID(i)); !ok || got != want {
				bad++
				if first < 0 {
					first = i
				}
			}
		}
		v.check(bad == 0, "%d objects differ from their last ack (first %s)", bad, objectID(max(first, 0)))
		v.check(c.Len() == len(g.acked), "node holds %d objects, want %d", c.Len(), len(g.acked))
		err := c.Validate()
		v.check(err == nil, "validate: %v", err)
	}
	cl, err := service.Dial(st.read.srv.Addr().String())
	if err != nil {
		v.check(false, "dial read node: %v", err)
		return v
	}
	defer cl.Close()
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for q := 0; q < oracleQueries; q++ {
		c := g.init[rng.Intn(len(g.init))]
		hits, err := cl.Nearby(coords(c), knnK)
		v.check(err == nil && sameNearest(hits, g.acked, c), "NEARBY %v: %d hits, err %v", c, len(hits), err)
		box := queryBox(g.init[rng.Intn(len(g.init))], g.box)
		hits, err = cl.Within(coords(box.Lo), coords(box.Hi))
		v.check(err == nil && sameWithin(hits, g.acked, box), "WITHIN %v: %d hits, err %v", box, len(hits), err)
	}
	if st.foll != nil {
		after := scrape(st.foll.reg)["psi_repl_bootstraps_total"]
		v.check(after == bootBefore, "follower bootstrapped %v times during the timed phase", after-bootBefore)
	}
	return v
}

func coords(p geom.Point) []int64 { return []int64{p[0], p[1]} }

func point(c []int64) geom.Point { return geom.Point{c[0], c[1]} }

// sameNearest reports whether hits are k nearest neighbours of q in
// model: each hit is its object's modelled position, and the sorted hit
// distances equal the k smallest model distances (ties make the IDs
// themselves ambiguous).
func sameNearest(hits []service.Hit, model []geom.Point, q geom.Point) bool {
	if len(hits) != min(knnK, len(model)) {
		return false
	}
	got := make([]int64, len(hits))
	for i, h := range hits {
		if !hitMatches(h, model) {
			return false
		}
		got[i] = geom.Dist2(point(h.P), q, dims)
	}
	all := make([]int64, len(model))
	for i, p := range model {
		all[i] = geom.Dist2(p, q, dims)
	}
	slices.Sort(all)
	slices.Sort(got)
	return slices.Equal(got, all[:len(got)])
}

// sameWithin reports whether hits are exactly the model objects in box.
func sameWithin(hits []service.Hit, model []geom.Point, box geom.Box) bool {
	var want []string
	for i, p := range model {
		if box.Contains(p, dims) {
			want = append(want, objectID(i))
		}
	}
	got := make([]string, 0, len(hits))
	for _, h := range hits {
		if !hitMatches(h, model) {
			return false
		}
		got = append(got, h.ID)
	}
	slices.Sort(want)
	slices.Sort(got)
	return slices.Equal(got, want)
}

func hitMatches(h service.Hit, model []geom.Point) bool {
	var i int
	if _, err := fmt.Sscanf(h.ID, "o%d", &i); err != nil || i < 0 || i >= len(model) || len(h.P) != dims {
		return false
	}
	return point(h.P) == model[i]
}

// scrape reads a registry's current series values.
func scrape(reg *obs.Registry) map[string]float64 {
	var b bytes.Buffer
	reg.WritePrometheus(&b)
	m, err := obs.ParseText(&b)
	if err != nil {
		panic(err) // the registry's own exposition always parses
	}
	return m
}
