package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/workload"
)

// side is the coordinate universe [0, side]^2, cmd/psid's default.
const side = int64(1_000_000_000)

// dims is the point dimensionality of every workload.
const dims = 2

// markers is the count of objects reserved for the visibility probe:
// only marker SETs move them, so a probe never races a regular SET on
// the object it is waiting for.
const markers = 64

// knnK is NEARBY's k in every workload.
const knnK = 10

// spec is one workload: the population, the request mix, the offered
// rate and the p99 latency limit the SLO search holds every op to.
//
// The limits sit where p99 turns steeply upward as the stack saturates:
// a limit on the flat part of the curve, where p99 is mostly scheduling
// noise, makes slo_kops a coin toss over a wide band of rates. The rates
// keep the timed phase well below the knee on a 2-core x86-64 VM, at a
// third of slo_kops or less: at half, the p99s of fleet and churn swung
// several-fold between identical runs, and durable's follower fell
// behind in some.
type spec struct {
	name    string
	objects int
	dist    workload.Dist
	// Mix fractions; WITHIN takes the rest. In split mode the SET
	// fraction goes to the writer connection and the queries to the
	// reader, split evenly between NEARBY and WITHIN.
	setFrac, nearbyFrac float64
	// hop is a SET's per-axis displacement bound as a fraction of side.
	hop float64
	// hits is the mean object count a WITHIN box centred on an object
	// is sized for, per population (see withinSide).
	hits float64
	// rate is the nominal offered rate in requests per second.
	rate float64
	// limitMs is the p99 latency limit of the SLO search.
	limitMs float64
	// durable runs a WAL'd leader (fsync always) plus one follower:
	// connection 0 writes to the leader, connection 1 reads from the
	// follower.
	durable bool
}

var specs = map[string]*spec{
	// Query-bound: clustered objects well beyond the last-level cache,
	// small hops, so flushes stay light and KNN/RangeList dominate.
	// Half a million objects (about 300 MB of heap, three times a 105 MiB
	// L3) rather than a million: a million-object set-up takes 6 s, and
	// three of them per run would not fit the benchmark's run budget.
	"fleet": {
		name: "fleet", objects: 500_000, dist: workload.Varden,
		setFrac: 0.20, nearbyFrac: 0.60, hop: 0.001, hits: 185,
		rate: 5000, limitMs: 15,
	},
	// Flush-bound: a population that fits in cache and teleporting SETs,
	// so every 2ms window moves objects across the whole map and the
	// snapshot twins' double apply dominates.
	"churn": {
		name: "churn", objects: 50_000, dist: workload.Uniform,
		setFrac: 0.90, nearbyFrac: 0.05, hop: 0.25, hits: 12,
		rate: 10000, limitMs: 25,
	},
	// Durability-bound: every SET ack waits on a journal fsync, every
	// follower read on log shipping.
	"durable": {
		name: "durable", objects: 200_000, dist: workload.Uniform,
		setFrac: 0.2, nearbyFrac: 0.4, hop: 0.001, hits: 11,
		rate: 250, limitMs: 20,
		durable: true,
	},
}

// population returns the seeded initial positions of every object.
func (w *spec) population(seed int64) []geom.Point {
	return workload.Generate(w.dist, w.objects, dims, side, seed)
}

// objectID is the wire ID of object i.
func objectID(i int) string { return fmt.Sprintf("o%d", i) }

// appendObjectID appends objectID(i) to dst without allocating.
func appendObjectID(dst []byte, i int32) []byte {
	dst = append(dst, 'o')
	return appendUint(dst, uint64(i))
}

func appendUint(dst []byte, v uint64) []byte {
	var buf [20]byte
	n := len(buf)
	for {
		n--
		buf[n] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	return append(dst, buf[n:]...)
}

func appendInt(dst []byte, v int64) []byte {
	if v < 0 {
		dst = append(dst, '-')
		return appendUint(dst, uint64(-v))
	}
	return appendUint(dst, uint64(v))
}

// hopped moves p by up to h per axis, reflected into the universe.
func hopped(rng *rand.Rand, p geom.Point, h int64) geom.Point {
	for d := 0; d < dims; d++ {
		c := p[d] + rng.Int63n(2*h+1) - h
		if c < 0 {
			c = -c
		}
		if c > side {
			c = 2*side - c
		}
		p[d] = c
	}
	return p
}

// withinSide is the WITHIN box side, in coordinates, that holds about
// w.hits objects around an object of pop (as gridHits estimates it):
// the side is rescaled by the square root of the shortfall until the
// estimate settles. At a fixed side the count of Varden populations
// varies by up to 15% between seeds, and WITHIN's cost with it; sizing
// the box per population keeps the seed from moving the workload.
func (w *spec) withinSide(pop []geom.Point) int64 {
	s := float64(side) * math.Sqrt(w.hits/float64(len(pop)))
	for i := 0; i < 6; i++ {
		s *= math.Sqrt(w.hits / gridHits(pop, s))
	}
	return int64(s)
}

// gridHits estimates the mean count of objects in an s-sided box
// centred on an object of pop: on a grid of s-sided cells, the mean over
// objects of the objects sharing their cell.
func gridHits(pop []geom.Point, s float64) float64 {
	cells := make(map[[dims]int64]int32, len(pop))
	for _, p := range pop {
		var c [dims]int64
		for d := range c {
			c[d] = int64(float64(p[d]) / s)
		}
		cells[c]++
	}
	var sq float64
	for _, n := range cells {
		sq += float64(n) * float64(n)
	}
	return sq / float64(len(pop))
}

// queryBox is the WITHIN box of side s centred on c, clipped to the
// universe.
func queryBox(c geom.Point, s int64) geom.Box {
	half := s / 2
	var lo, hi geom.Point
	for d := 0; d < dims; d++ {
		lo[d] = max(c[d]-half, 0)
		hi[d] = min(c[d]+half, side)
	}
	return geom.BoxOf(lo, hi)
}
