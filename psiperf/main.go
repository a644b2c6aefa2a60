// Command psiperf is the repository's benchmark: it starts psid's
// serving stack in-process (Sharded SPaC-H, one shard per core, Hilbert
// ranges, maxbatch 4096, 2ms flush interval, snapshot reads), drives it
// with an open-loop pipelined load over loopback TCP, then measures each
// op's closed-loop capacity, checks the answers against its own model,
// and prints every metric by name with its unit.
//
//	go run . --workload fleet --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics on the bare stack; --trace 1
// runs the bare stack and then a decorated one and reports per-layer
// metrics instead. The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}. GLOSSARY.md defines
// every metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/geom"
)

// warmUp is discarded load at the start of every timed phase.
const warmUp = time.Second

// markerGap is the visibility marker cadence.
const markerGap = 2 * time.Millisecond

// capDepth is the requests each connection keeps in flight in a
// capacity phase (a multiple of capBatch), capWarm the discarded start
// of the phase, and capRounds how many phases each op gets, taken in
// turn with the other ops', so a slow stretch of the host falls on one
// phase of every op rather than on all of one op's.
const (
	capDepth  = 128
	capWarm   = 250 * time.Millisecond
	capRounds = 3
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects metrics in print order. Every metric is printed;
// only those added with add go into the JSON line.
type report struct {
	lines []string
	m     map[string]metric
}

// add records a metric for the JSON line and the printed table.
func (r *report) add(name string, v float64, unit string) {
	if r.m == nil {
		r.m = make(map[string]metric)
	}
	r.m[name] = metric{Value: v, Unit: unit}
	r.note(name, v, unit)
}

// note records a metric for the printed table only.
func (r *report) note(name string, v float64, unit string) {
	r.lines = append(r.lines, fmt.Sprintf("%-36s %14.6g %s", name, v, unit))
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "fleet", "workload: fleet, churn or durable")
	seed := flag.Int64("seed", 1, "seed of the generated population and requests")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	w, ok := specs[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "psiperf: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	defer removeTmp()
	pop := w.population(*seed)
	dur := time.Duration(*seconds) * time.Second
	var (
		r   report
		out output
		err error
	)
	if *trace == 0 {
		out, err = untraced(w, pop, *seed, dur, &r)
	} else {
		out, err = traced(w, pop, *seed, dur, &r)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "psiperf: %s: %v\n", w.name, err)
		return 1
	}
	for _, l := range r.lines {
		fmt.Println(l)
	}
	out.Metrics = r.m
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "psiperf: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// timedPhase is the measured load at the workload's nominal rate. The
// traced run sends no visibility markers: the probe's polling queries
// would land in the read node's span record.
func timedPhase(w *spec, dur time.Duration, markers bool) phase {
	ph := phase{rate: w.rate, dur: warmUp + dur, measureFrom: warmUp, windows: 20}
	if markers {
		ph.markerGap = markerGap
	}
	return ph
}

// valid rejects a phase whose generator fell behind its schedule: its
// latencies would describe the generator, not the server. Falling behind
// means the median request went out late by a quarter of the latency
// limit, or the responses fell short of the offered rate; a late tail
// alone (a preempted sender) is jitter, reported as loadgen.late_p99_ms
// and charged to latency.
func valid(w *spec, ps *phaseStats) error {
	if late := ms(quantile(ps.late.v, 0.5)); late > w.limitMs/4 {
		return fmt.Errorf("generator fell behind: late p50 %.3f ms exceeds %.3f ms", late, w.limitMs/4)
	}
	if ps.achieved < 0.95*ps.ph.rate {
		return fmt.Errorf("generator fell behind: achieved %.0f/s of %.0f/s offered", ps.achieved, ps.ph.rate)
	}
	if ps.dropped > 0 {
		return fmt.Errorf("%d samples overflowed their buffers", ps.dropped)
	}
	return nil
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// capacity is one op's closed-loop outcome: completions per second in
// kop/s, and the process CPU time spent per request in microseconds.
type capacity struct{ kops, cpuUs float64 }

// capacities drives each op closed-loop, capRounds times for dur in
// all. Per op it returns the completions per second over the measured
// stretches of its phases, and the process CPU time of its phases,
// warm-up and drain included, per request they sent. The phases'
// requests are added to ps. With a follower, a SET phase keeps only one
// batch in flight, so that the follower's backlog, which the sender
// holds to capMaxLag, grows by at most one batch past it, and every
// phase waits for the follower to catch up, so the next one does not
// share the node with a replication backlog; the CPU time of that
// catch-up is the phase's.
func (g *gen) capacities(st *stack, dur time.Duration, ps *phaseStats) ([numOps]capacity, error) {
	var (
		done, sent [numOps]uint64
		cpu        [numOps]time.Duration
	)
	per := dur / capRounds
	for round := 0; round < capRounds; round++ {
		for o := opKind(0); o < numOps; o++ {
			ph := phase{dur: capWarm + per, measureFrom: capWarm, windows: 1, depth: capDepth, only: o}
			if o == opSet && st.foll != nil {
				ph.depth = capBatch
			}
			c0 := processCPU()
			cs, err := g.run(ph)
			if err == nil {
				err = st.waitCaughtUp(60 * time.Second)
			}
			if err != nil {
				return [numOps]capacity{}, fmt.Errorf("%s capacity: %w", opNames[o], err)
			}
			cpu[o] += processCPU() - c0
			ps.attempted += cs.attempted
			ps.failed += cs.failed
			if ps.firstErr == "" {
				ps.firstErr = cs.firstErr
			}
			done[o] += cs.done[0]
			sent[o] += cs.attempted
		}
	}
	var caps [numOps]capacity
	for o := range caps {
		caps[o] = capacity{
			kops:  float64(done[o]) / (capRounds * per.Seconds()) / 1e3,
			cpuUs: float64(cpu[o].Nanoseconds()) / 1e3 / float64(max(sent[o], 1)),
		}
	}
	return caps, nil
}

func untraced(w *spec, pop []geom.Point, seed int64, dur time.Duration, r *report) (output, error) {
	base := liveHeap()
	st, setupS, err := setupRepeated(w, pop)
	if err != nil {
		return output{}, fmt.Errorf("setup: %w", err)
	}
	defer st.close()
	heap := st.heapPerObject(base)
	g, err := newGen(st, pop, seed)
	if err != nil {
		return output{}, err
	}
	defer g.close()
	boot := bootstraps(st)
	ps, err := g.run(timedPhase(w, dur/2, true))
	if err != nil {
		return output{}, err
	}
	if err := valid(w, ps); err != nil {
		return output{}, err
	}
	caps, err := g.capacities(st, dur*3/4, ps)
	if err != nil {
		return output{}, err
	}
	v := oracle(st, g, seed, boot)
	for _, p := range v.problems {
		fmt.Fprintf(os.Stderr, "psiperf: oracle: %s\n", p)
	}
	if ps.firstErr != "" {
		fmt.Fprintf(os.Stderr, "psiperf: first failed response: %s\n", ps.firstErr)
	}
	out := output{
		Attempted: ps.attempted + v.attempted,
		Failed:    ps.failed + v.failed,
	}
	out.Correct = out.Failed == 0
	// The capacities, latency quantiles and visibility metrics are
	// printed but left out of the JSON line: on the shared 2-core VM the
	// benchmark was defined on, wall-clock figures moved with the time
	// the hypervisor gave to other guests, and their spread across seeds
	// exceeded any bound BENCHMARK.json may set or came close to it
	// (GLOSSARY.md has the figures). The CPU time per request carries
	// the gate instead. fail_frac is 0 on a passing run, and the JSON's
	// failed and attempted carry it.
	// slo_kops comes from the traced run's bare reference stack, so that
	// this run's time after set-up goes to the timed and capacity phases.
	for o := opKind(0); o < numOps; o++ {
		r.add(opNames[o]+"_cpu_us", caps[o].cpuUs, "us")
	}
	for o := opKind(0); o < numOps; o++ {
		r.note(opNames[o]+"_kops", caps[o].kops, "kop/s")
	}
	for o := opKind(0); o < numOps; o++ {
		r.note(opNames[o]+"_p50_ms", windowed(ps.lat[o], 0.50), "ms")
		r.note(opNames[o]+"_p99_ms", windowed(ps.lat[o], 0.99), "ms")
	}
	r.note("visible_p50_ms", windowed(ps.visible, 0.50), "ms")
	r.note("visible_p99_ms", windowed(ps.visible, 0.99), "ms")
	r.add("heap_bytes_per_object", heap, "B")
	r.add("setup_s", setupS, "s")
	r.note("fail_frac", float64(out.Failed)/float64(max(out.Attempted, 1)), "1")
	for o := opKind(0); o < numOps; o++ {
		r.note("samples."+opNames[o], float64(count(ps.lat[o])), "count")
	}
	r.note("samples.visible", float64(count(ps.visible)), "count")
	return out, nil
}

// bootstraps is the follower's bootstrap count (0 without a follower).
func bootstraps(st *stack) float64 {
	if st.foll == nil {
		return 0
	}
	return scrape(st.foll.reg)["psi_repl_bootstraps_total"]
}

// sloStep is one rung of the SLO search: a fifth of the rung, then the
// measured stretch whose p99 (windowed, as in the timed phase) is held
// to the limit.
const sloStep = 1500 * time.Millisecond

// sloSearch finds the highest offered rate at which every op's p99,
// timed from due time, stays under the workload's limit with no growing
// backlog: rates grow or shrink by 1.3x until bracketed, then bisect to
// 4%. A rate fails only if two rungs at it fail in a row, so one noise
// burst on a shared host does not end the climb early.
func (g *gen) sloSearch(st *stack) (rate float64, attempted, failed uint64, err error) {
	var lo, hi, loGot, hiGot float64
	r := 2 * g.w.rate
	for i := 0; i < 16; i++ {
		pass, got, err := g.sloRung(st, r, &attempted, &failed)
		if err == nil && !pass {
			i++
			pass, got, err = g.sloRung(st, r, &attempted, &failed)
		}
		if err != nil {
			return 0, 0, 0, err
		}
		if pass {
			lo, loGot = r, got
		} else {
			hi, hiGot = r, got
		}
		switch {
		case hi == 0:
			r *= 1.3
		case lo == 0:
			r /= 1.3
		case hi/lo < 1.04:
			// The measured throughput of the two bracketing rungs, not
			// their scheduled rates, so the figure is not quantised to
			// the search grid.
			return (loGot + hiGot) / 2, attempted, failed, nil
		default:
			r = (lo + hi) / 2
		}
	}
	if lo == 0 {
		return 0, attempted, failed, errors.New("slo search: no rate met the latency limit")
	}
	return loGot, attempted, failed, nil
}

// sloRung offers rate r for one rung and reports whether it met the
// limit, with the throughput it achieved. Each rung drains before the
// next, so a backlog that grows during a rung shows as latency within
// it. The follower's replication backlog, which no response waits for,
// must stay within what arrives in one latency limit, and is drained
// before the next rung.
func (g *gen) sloRung(st *stack, r float64, attempted, failed *uint64) (bool, float64, error) {
	w := g.w
	ps, err := g.run(phase{rate: r, dur: sloStep, measureFrom: sloStep / 5, windows: 20})
	if err != nil {
		return false, 0, err
	}
	*attempted += ps.attempted
	*failed += ps.failed
	pass := ps.failed == 0 && ps.achieved >= 0.97*r
	for o := range ps.lat {
		if windowed(ps.lat[o], 0.99) > w.limitMs {
			pass = false
		}
	}
	if st.foll != nil {
		if lag := float64(st.lagWindows()); lag > max(4, r*w.setFrac*w.limitMs/1e3) {
			pass = false
		}
		if err := st.waitCaughtUp(60 * time.Second); err != nil {
			return false, 0, err
		}
	}
	return pass, ps.achieved, nil
}

func traced(w *spec, pop []geom.Point, seed int64, dur time.Duration, r *report) (output, error) {
	half := max(dur/2, time.Second)
	// Untraced reference: the same phase on the bare stack, followed by
	// the SLO search, which is an end-to-end figure and so runs here,
	// untraced, rather than in the decorated stack.
	st, err := setup(w, pop, false)
	if err != nil {
		return output{}, fmt.Errorf("setup: %w", err)
	}
	g, err := newGen(st, pop, seed)
	if err != nil {
		st.close()
		return output{}, err
	}
	boot := bootstraps(st)
	ref, err := g.run(timedPhase(w, half, false))
	if err == nil {
		err = valid(w, ref)
	}
	var (
		slo                     float64
		sloAttempted, sloFailed uint64
		v                       verdict
	)
	if err == nil {
		slo, sloAttempted, sloFailed, err = g.sloSearch(st)
	}
	if err == nil {
		v = oracle(st, g, seed, boot)
	}
	g.close()
	st.close()
	if err != nil {
		return output{}, err
	}

	st, err = setup(w, pop, true)
	if err != nil {
		return output{}, fmt.Errorf("traced setup: %w", err)
	}
	defer st.close()
	g, err = newGen(st, pop, seed)
	if err != nil {
		return output{}, err
	}
	defer g.close()
	lt := newLayerTrace(st)
	ps, err := g.run(timedPhase(w, half, false))
	lt.finish()
	if err != nil {
		return output{}, err
	}
	if err := valid(w, ps); err != nil {
		return output{}, err
	}
	v2 := oracle(st, g, seed, lt.bootBefore)
	for _, p := range append(v.problems, v2.problems...) {
		fmt.Fprintf(os.Stderr, "psiperf: oracle: %s\n", p)
	}
	out := output{
		Attempted: ref.attempted + sloAttempted + ps.attempted + v.attempted + v2.attempted,
		Failed:    ref.failed + sloFailed + ps.failed + v.failed + v2.failed,
	}
	out.Correct = out.Failed == 0
	lt.report(r, ps, ref, out)
	r.note("slo_kops", slo/1e3, "kop/s")
	for _, tr := range []*tracer{st.trLead, st.trRead} {
		if n := tr.dropped.Load(); n > 0 {
			fmt.Fprintf(os.Stderr, "psiperf: %d spans dropped (tracer full)\n", n)
		}
	}
	return out, nil
}
