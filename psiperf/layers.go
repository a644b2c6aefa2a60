package main

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// layerTrace gathers the per-layer evidence of one traced phase: span
// windows from the decorators, registry deltas, the collection flush
// spans (polled from the registries' rings, which keep only the latest
// 256), the follower's lag, and runtime counters. The measured window
// starts after the phase's warm-up, like the end-to-end samples.
type layerTrace struct {
	st   *stack
	stop chan struct{}
	wg   sync.WaitGroup

	// Written by poll until finish's wg.Wait, read by report after it.
	from, to   int64 // measured window, leader tracer time
	fromRead   int64 // measured window start, read tracer time
	toRead     int64
	fromUnix   int64
	before     [2]map[string]float64 // leader, read node
	after      [2]map[string]float64
	memBefore  runtime.MemStats
	memAfter   runtime.MemStats
	bootBefore float64
	flushes    [2][]obs.FlushSpan // collection spans: leader, follower
	lost       uint64
	lagMax     uint64
	setupEnd   int64 // leader tracer time when the traced setup ended
}

func newLayerTrace(st *stack) *layerTrace {
	lt := &layerTrace{st: st, stop: make(chan struct{}), setupEnd: st.trLead.now()}
	lt.bootBefore = bootstraps(st)
	lt.wg.Add(1)
	go lt.poll()
	return lt
}

// poll waits out the warm-up, snapshots the "before" state, then keeps
// draining the flush-span rings and sampling follower lag until finish.
func (lt *layerTrace) poll() {
	defer lt.wg.Done()
	select {
	case <-time.After(warmUp + 2*time.Millisecond):
	case <-lt.stop:
		return
	}
	lt.from, lt.fromRead = lt.st.trLead.now(), lt.st.trRead.now()
	lt.fromUnix = time.Now().UnixNano()
	lt.before = [2]map[string]float64{scrape(lt.st.lead.reg), scrape(lt.st.read.reg)}
	lt.bootBefore = bootstraps(lt.st)
	runtime.ReadMemStats(&lt.memBefore)
	var last [2]uint64
	for i, n := range lt.st.nodes() {
		last[i] = n.reg.FlushTrace().Total()
	}
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		lt.drain(&last)
		lt.sampleLag()
		select {
		case <-tick.C:
		case <-lt.stop:
			lt.drain(&last)
			return
		}
	}
}

// drain copies every collection flush span recorded since the last call.
func (lt *layerTrace) drain(last *[2]uint64) {
	for i, n := range lt.st.nodes() {
		ring := n.reg.FlushTrace()
		if ring.Total() == last[i] {
			continue
		}
		spans := ring.Snapshot()
		if len(spans) > 0 && spans[0].Seq > last[i]+1 {
			lt.lost += spans[0].Seq - last[i] - 1
		}
		for _, sp := range spans {
			if sp.Seq <= last[i] {
				continue
			}
			last[i] = sp.Seq
			if sp.Layer == "collection" && sp.Start >= lt.fromUnix {
				lt.flushes[i] = append(lt.flushes[i], sp)
			}
		}
	}
}

func (lt *layerTrace) sampleLag() {
	if lt.st.foll == nil {
		return
	}
	ls, fs := lt.st.lead.srv.Stats(), lt.st.foll.srv.Stats()
	if ls.WAL == nil || fs.Repl == nil || fs.Repl.Follower == nil {
		return
	}
	if a := fs.Repl.Follower.AppliedSeq; ls.WAL.Seq > a {
		lt.lagMax = max(lt.lagMax, ls.WAL.Seq-a)
	}
}

// finish ends the measured window; call it when the phase returns.
func (lt *layerTrace) finish() {
	lt.to, lt.toRead = lt.st.trLead.now(), lt.st.trRead.now()
	lt.after = [2]map[string]float64{scrape(lt.st.lead.reg), scrape(lt.st.read.reg)}
	runtime.ReadMemStats(&lt.memAfter)
	close(lt.stop)
	lt.wg.Wait()
}

// delta is a series' growth over the window on node i (0 leader, 1 read).
func (lt *layerTrace) delta(i int, key string) float64 {
	return lt.after[i][key] - lt.before[i][key]
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not run).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// report computes every per-layer metric; ref is the untraced phase.
func (lt *layerTrace) report(r *report, ps, ref *phaseStats, out output) {
	us := func(ns float64) float64 { return ns / 1e3 }
	const lead, read = 0, 1
	nodeOf := [numOps]int{opSet: lead, opNearby: read, opWithin: read}
	trRead := lt.st.trRead
	trLead := lt.st.trLead

	// service
	var client, dispatch [numOps]float64
	for o := opKind(0); o < numOps; o++ {
		client[o] = mean(pooled(ps.lat[o]))
		lbl := `{op="` + opLabel(o) + `"}`
		dispatch[o] = ratio(lt.delta(nodeOf[o], "psi_query_duration_ns_sum"+lbl),
			lt.delta(nodeOf[o], "psi_query_duration_ns_count"+lbl))
		r.add("service.dispatch_us."+opNames[o], us(dispatch[o]), "us")
	}
	for o := opKind(0); o < numOps; o++ {
		r.add("service.wire_us."+opNames[o], us(client[o]-dispatch[o]), "us")
	}
	queryKind := map[opKind]spanKind{opNearby: kindKNN, opWithin: kindRangeList}
	var shardQ, treeQ [numOps]spanStats
	for _, o := range []opKind{opNearby, opWithin} {
		shardQ[o] = trRead.filter(layerShard, queryKind[o], lt.fromRead, lt.toRead)
		treeQ[o] = trRead.filter(layerTree, queryKind[o], lt.fromRead, lt.toRead)
		r.add("service.self_us."+opNames[o], us(dispatch[o]-shardQ[o].meanDur()), "us")
	}
	for _, o := range []opKind{opNearby, opWithin} {
		r.add("service.resp_bytes."+opNames[o], ratio(float64(ps.respBytes[o]), float64(ps.respCount[o])), "B")
	}

	// collection (leader)
	fl := lt.flushes[lead]
	var stage [obs.NumStages]float64
	var raw, netted float64
	durs := make([]int64, 0, len(fl))
	for _, sp := range fl {
		for s := range sp.Stages {
			stage[s] += float64(sp.Stages[s])
		}
		raw += float64(sp.RawOps)
		netted += float64(sp.NettedOps)
		durs = append(durs, int64(sp.Dur()))
	}
	nw := float64(len(fl))
	r.add("collection.windows", nw, "count")
	r.add("collection.window_ops", ratio(raw, nw), "ops")
	r.add("collection.netted_frac", ratio(netted, raw), "1")
	for s, name := range obs.StageNames {
		r.add("collection."+name+"_us", us(ratio(stage[s], nw)), "us")
	}
	r.add("collection.window_us_p99", us(float64(quantile(durs, 0.99))), "us")

	// shard
	bd := trLead.filter(layerShard, kindBatchDiff, lt.from, lt.to)
	treeBD := trLead.filter(layerTree, kindBatchDiff, lt.from, lt.to)
	r.add("shard.batchdiff_us", us(bd.meanDur()), "us")
	r.add("shard.batchdiff_self_us", us(selfTime(bd.matched, treeBD.matched)), "us")
	r.add("shard.knn_us", us(shardQ[opNearby].meanDur()), "us")
	r.add("shard.rangelist_us", us(shardQ[opWithin].meanDur()), "us")
	r.add("shard.fanout", ratio(lt.delta(read, "psi_query_fanout_shards_sum"), lt.delta(read, "psi_query_fanout_shards_count")), "shards")
	var exp float64
	var perShard []float64
	for _, k := range sortedKeys(lt.after[read], "psi_shard_knn_expansions_total") {
		exp += lt.delta(read, k)
	}
	for _, k := range sortedKeys(lt.after[read], "psi_shard_queries_total") {
		perShard = append(perShard, lt.delta(read, k))
	}
	r.add("shard.knn_expansions", ratio(exp, float64(shardQ[opNearby].count)), "shards")
	var sum, top float64
	for _, x := range perShard {
		sum += x
		top = max(top, x)
	}
	r.add("shard.ops_imbalance", ratio(top, ratio(sum, float64(len(perShard)))), "1")

	// spactree
	build := trLead.filter(layerTree, kindBatchDiff, 0, lt.setupEnd)
	buildB := trLead.filter(layerTree, kindBuild, 0, lt.setupEnd)
	r.add("spactree.batchdiff_us", us(treeBD.meanDur()), "us")
	r.add("spactree.batchdiff_pts", treeBD.meanN(), "points")
	r.add("spactree.knn_us", us(treeQ[opNearby].meanDur()), "us")
	r.add("spactree.rangelist_us", us(treeQ[opWithin].meanDur()), "us")
	r.add("spactree.rangelist_hits", treeQ[opWithin].meanN(), "points")
	r.add("spactree.build_s", float64(build.durSum+buildB.durSum)/1e9, "s")

	// wal (leader; zero without a WAL)
	sets := float64(ps.respCount[opSet])
	const wl = `{layer="wal"}`
	r.add("wal.fsync_us", us(ratio(lt.delta(lead, "psi_wal_fsync_duration_ns_sum"+wl), lt.delta(lead, "psi_wal_fsync_duration_ns_count"+wl))), "us")
	r.add("wal.fsyncs_per_set", ratio(lt.delta(lead, "psi_wal_fsync_total"+wl), sets), "1")
	r.add("wal.bytes_per_set", ratio(lt.delta(lead, "psi_wal_bytes_total"+wl), sets), "B")
	r.add("wal.recover_s", lt.st.recoverS, "s")

	// repl (zero without a follower)
	var apply float64
	for _, sp := range lt.flushes[1] {
		apply += float64(sp.Dur())
	}
	r.add("repl.lag_windows_max", float64(lt.lagMax), "windows")
	r.add("repl.bytes_per_window", ratio(lt.delta(lead, "psi_repl_bytes_sent_total"), lt.delta(lead, "psi_repl_windows_sent_total")), "B")
	r.add("repl.follower_apply_us", us(ratio(apply, float64(len(lt.flushes[1])))), "us")
	r.add("repl.bootstraps", bootstraps(lt.st)-lt.bootBefore, "count")

	// runtime
	reqs := float64(ps.attempted)
	r.add("runtime.allocs_per_op", ratio(float64(lt.memAfter.Mallocs-lt.memBefore.Mallocs), reqs), "allocs")
	r.add("runtime.alloc_bytes_per_op", ratio(float64(lt.memAfter.TotalAlloc-lt.memBefore.TotalAlloc), reqs), "B")
	r.add("runtime.gc_cycles", float64(lt.memAfter.NumGC-lt.memBefore.NumGC), "count")
	r.add("runtime.gc_pause_ms", float64(lt.memAfter.PauseTotalNs-lt.memBefore.PauseTotalNs)/1e6, "ms")

	// loadgen
	r.add("loadgen.offered_kops", ps.ph.rate/1e3, "kop/s")
	r.add("loadgen.achieved_kops", ps.achieved/1e3, "kop/s")
	r.add("loadgen.late_p99_ms", ms(quantile(ps.late.v, 0.99)), "ms")
	for o := opKind(0); o < numOps; o++ {
		r.add("loadgen.samples."+opNames[o], float64(count(ps.lat[o])), "count")
	}
	r.add("loadgen.fail_frac", ratio(float64(out.Failed), float64(out.Attempted)), "1")

	// trace: what no measured span explains, and what the spans cost.
	late := mean(ps.late.v)
	for o := opKind(0); o < numOps; o++ {
		got := late + dispatch[o]
		if o != opSet {
			nDispatch := int(lt.delta(nodeOf[o], `psi_query_duration_ns_count{op="`+opLabel(o)+`"}`))
			got = attributed(late, dispatch[o], nDispatch, shardQ[o].matched, treeQ[o].matched)
		}
		r.add("trace.unattributed_frac."+opNames[o], ratio(client[o]-got, client[o]), "1")
	}
	var all, allRef []int64
	for o := range ps.lat {
		all = append(all, pooled(ps.lat[o])...)
		allRef = append(allRef, pooled(ref.lat[o])...)
	}
	r.add("trace.overhead_frac", ratio(mean(all)-mean(allRef), mean(allRef)), "1")
	if lt.lost > 0 {
		fmt.Printf("note: %d flush spans were overwritten before they were read\n", lt.lost)
	}
}

// opLabel is a protocol op's label value in psi_query_duration_ns.
func opLabel(o opKind) string { return strings.ToUpper(opNames[o]) }

// sortedKeys returns m's keys with the given prefix, sorted.
func sortedKeys(m map[string]float64, prefix string) []string {
	var ks []string
	for k := range m {
		if strings.HasPrefix(k, prefix) {
			ks = append(ks, k)
		}
	}
	slices.Sort(ks)
	return ks
}
