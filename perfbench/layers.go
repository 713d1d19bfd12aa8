package main

import (
	"strings"

	spandex "spandex"
	"spandex/internal/mcheck"
)

// simAcc accumulates, over one pass, the simulated quantities the program
// already exports: Result counters and traffic, the latency report and the
// metrics report. None of them depend on the host, so every pass of the
// same inputs yields the same sums.
type simAcc struct {
	ops, events uint64
	bytes, msgs uint64
	counters    map[string]uint64
	// hierGPUMiss is the GPU L1 misses (either protocol) of cells that
	// have a hierarchical GPU L2.
	hierGPUMiss uint64

	// From Result.Latency (Options.TraceLatency).
	requests uint64
	waits    [6]uint64

	// From Result.Metrics (Options.Metrics).
	linkUtilMax           float64
	linkMsgs, backlog     uint64
	dramAccesses          uint64
	dramBusy, dramSpan    float64
	regionAccess, revokes uint64

	// From mcheck.Result.
	mc mcheck.Result

	// Headline figure error against the paper, percentage points.
	figTimeErr, figTrafficErr float64
}

func newSimAcc() *simAcc { return &simAcc{counters: map[string]uint64{}} }

// add folds one simulated run into the accumulator; ticksPerByte is the
// run's NoC link serialization cost.
func (a *simAcc) add(res spandex.Result, ticksPerByte float64) {
	if a == nil {
		return
	}
	a.ops += res.Ops
	a.events += res.Events
	a.bytes += res.Traffic.TotalBytes(true)
	for _, m := range res.Traffic.Messages {
		a.msgs += m
	}
	hasL2 := false
	for k, v := range res.Counters {
		a.counters[k] += v
		hasL2 = hasL2 || strings.HasPrefix(k, "gpul2.")
	}
	if hasL2 {
		a.hierGPUMiss += res.Counters["gpul1.miss"] + res.Counters["dnl1.miss"]
	}
	if l := res.Latency; l != nil {
		a.requests += l.Requests
		for _, c := range l.Classes {
			for p, t := range c.Phases {
				if p < len(a.waits) {
					a.waits[p] += t
				}
			}
		}
	}
	m := res.Metrics
	if m == nil || res.ExecTime == 0 {
		return
	}
	span := float64(res.ExecTime)
	for _, l := range m.Links {
		if u := float64(l.Bytes) * ticksPerByte / span; u > a.linkUtilMax {
			a.linkUtilMax = u
		}
		a.linkMsgs += l.Msgs
		a.backlog += l.EgressBacklog.Total() + l.IngressBacklog.Total()
	}
	if d := m.DRAM; d != nil {
		a.dramAccesses += d.Reads + d.Writes
		a.dramBusy += float64(d.ReadBytes+d.WriteBytes) * ticksPerByte
		a.dramSpan += span
	}
	if m.LLC != nil {
		a.revokes += m.LLC.Revocations.Total()
	}
	for _, r := range m.Regions {
		a.regionAccess += r.Access
	}
}

func (a *simAcc) addMcheck(r mcheck.Result) {
	if a == nil {
		return
	}
	a.mc.States += r.States
	a.mc.Transitions += r.Transitions
	a.mc.AmpleCommits += r.AmpleCommits
	a.mc.SleepSkips += r.SleepSkips
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// sumCounters adds every counter named in names.
func (a *simAcc) sumCounters(names ...string) float64 {
	var s uint64
	for _, n := range names {
		s += a.counters[n]
	}
	return float64(s)
}

// hitRatio is hits / (hits + misses) over the named counters.
func (a *simAcc) hitRatio(hits, misses []string) float64 {
	h := a.sumCounters(hits...)
	return ratio(h, h+a.sumCounters(misses...))
}

// trafficPerOp is simulated NoC bytes (every class, memory included) per
// device op.
func (a *simAcc) trafficPerOp() float64 { return ratio(float64(a.bytes), float64(a.ops)) }

// counterMetrics are the per-layer metrics read from Result counters and
// traffic (untraced runs carry them too).
func (a *simAcc) counterMetrics(put func(name string, v float64)) {
	put("sim.ops", float64(a.ops))
	put("sim.events", float64(a.events))
	put("sim.events_per_op", ratio(float64(a.events), float64(a.ops)))
	put("mesi.hit_ratio", a.hitRatio(
		[]string{"mesil1.hit", "mesil1.atomic_hit"}, []string{"mesil1.miss", "mesil1.atomic_miss"}))
	put("denovo.hit_ratio", a.hitRatio(
		[]string{"dnl1.hit", "dnl1.atomic_hit"}, []string{"dnl1.miss", "dnl1.atomic_miss"}))
	put("gpucoh.hit_ratio", a.hitRatio([]string{"gpul1.hit"}, []string{"gpul1.miss"}))
	// The hierarchical GPU L2 counts only the requests it sends on to the
	// L3 directory, so its hit ratio is the share of the GPU L1 misses it
	// reaches that it serves itself.
	hm := 0.0
	if a.hierGPUMiss > 0 {
		hm = max(0, 1-a.sumCounters("gpul2.gets", "gpul2.getm")/float64(a.hierGPUMiss))
	}
	put("hmesi.hit_ratio", hm)
	put("core.forwards", a.sumCounters("llc.forwards", "dir.fwd_gets", "dir.fwd_getm"))
	put("core.queued", a.sumCounters("llc.queued", "dir.queued", "gpul2.queued"))
	put("noc.msgs", float64(a.msgs))
	put("noc.bytes", float64(a.bytes))
	put("model.traffic_bytes_per_op", a.trafficPerOp())
	put("model.fig_time_err_pp", a.figTimeErr)
	put("model.fig_traffic_err_pp", a.figTrafficErr)
	put("mcheck.states", float64(a.mc.States))
	put("mcheck.transitions", float64(a.mc.Transitions))
	put("mcheck.ample_commits", float64(a.mc.AmpleCommits))
	put("mcheck.sleep_skips", float64(a.mc.SleepSkips))
}

// observedMetrics are the per-layer metrics that need the simulator's
// observability products (a pass with runner.observe set).
func (a *simAcc) observedMetrics(put func(name string, v float64)) {
	put("core.llc_miss_ratio", ratio(a.sumCounters("llc.miss", "dir.miss"), float64(a.regionAccess)))
	put("core.revokes", float64(a.revokes))
	put("noc.link_util_max", a.linkUtilMax)
	put("noc.queue_delay_mean", ratio(float64(a.backlog), float64(a.linkMsgs)))
	put("dram.accesses", float64(a.dramAccesses))
	put("dram.bw_util", ratio(a.dramBusy, a.dramSpan))
	for i, n := range waitNames {
		put(n, ratio(float64(a.waits[i]), float64(a.requests)))
	}
}

// waitNames follow obs.Phase order: L1/MSHR, Network, LLC, LLC-blocked,
// Indirection, DRAM.
var waitNames = []string{"wait.l1", "wait.noc", "wait.llc", "wait.llc_blocked", "wait.indirection", "wait.dram"}
