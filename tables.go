package spandex

import (
	"fmt"
	"strings"

	"spandex/internal/config"
	"spandex/internal/mesi"
	"spandex/internal/obs"
	"spandex/internal/proto"
	"spandex/internal/sim"
	"spandex/internal/workload"
)

// RenderTable reproduces one of the paper's tables as text. Valid names:
// "I" (coherence strategies), "II" (device request mapping), "III" (LLC
// transitions), "IV" (device external transitions), "V" (cache
// configurations), "VI" (system parameters), "VII" (application
// communication patterns).
func RenderTable(name string) (string, error) {
	switch strings.ToUpper(name) {
	case "I", "1":
		return renderTableI(), nil
	case "II", "2":
		return renderTableII(), nil
	case "III", "3":
		return renderTableIII(), nil
	case "IV", "4":
		return renderTableIV(), nil
	case "V", "5":
		return renderTableV(), nil
	case "VI", "6":
		return renderTableVI(), nil
	case "VII", "7":
		return renderTableVII(), nil
	}
	return "", fmt.Errorf("spandex: unknown table %q (valid: I..VII)", name)
}

func renderTableI() string {
	var b strings.Builder
	b.WriteString("Table I: coherence strategy classification\n")
	fmt.Fprintf(&b, "%-15s %-20s %-15s %-22s\n",
		"Strategy", "Stale invalidation", "Write prop.", "Granularity")
	for _, s := range proto.TableI() {
		fmt.Fprintf(&b, "%-15s %-20s %-15s loads: %s, stores: %s\n",
			s.Name, s.StaleInvalidation, s.WritePropagation,
			s.LoadGranularity, s.StoreGranularity)
	}
	return b.String()
}

func renderTableII() string {
	var b strings.Builder
	b.WriteString("Table II: device request → Spandex request mapping\n")
	rows := []struct{ dev, req, spdx, gran string }{
		{"GPU coherence", "Read", "ReqV", "line"},
		{"GPU coherence", "Write", "ReqWT", "word"},
		{"GPU coherence", "RMW", "ReqWT+data", "word"},
		{"DeNovo", "Read", "ReqV", "flexible"},
		{"DeNovo", "Write", "ReqO", "word"},
		{"DeNovo", "RMW", "ReqO+data", "word"},
		{"DeNovo", "Owned Repl", "ReqWB", "word"},
		{"MESI", "Read", "ReqS", "line"},
		{"MESI", "Write", "ReqO+data", "line"},
		{"MESI", "RMW", "ReqO+data", "line"},
		{"MESI", "Owned Repl", "ReqWB", "line"},
	}
	fmt.Fprintf(&b, "%-15s %-12s %-12s %s\n", "Device", "Request", "Spandex", "Granularity")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-15s %-12s %-12s %s\n", r.dev, r.req, r.spdx, r.gran)
	}
	return b.String()
}

func renderTableIII() string {
	var b strings.Builder
	b.WriteString("Table III: Spandex LLC transitions (next state; forward when owned)\n")
	rows := []struct{ req, next, fwd string }{
		{"ReqV", "—", "ReqV"},
		{"ReqS (1)", "S", "ReqS (MESI owner) / RvkO (other owner)"},
		{"ReqS (3)", "O", "ReqO+data"},
		{"ReqWT", "V", "ReqWT"},
		{"ReqO", "O", "ReqO"},
		{"ReqWT+data", "V", "RvkO (blocking)"},
		{"ReqO+data", "O", "ReqO+data"},
		{"ReqWB from owner", "V", "—"},
		{"ReqWB from non-owner", "—", "—"},
	}
	fmt.Fprintf(&b, "%-22s %-6s %s\n", "Request", "Next", "Forward")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %-6s %s\n", r.req, r.next, r.fwd)
	}
	return b.String()
}

func renderTableIV() string {
	var b strings.Builder
	b.WriteString("Table IV: device transitions for external Spandex requests\n")
	rows := []struct{ req, expect, next, rsp string }{
		{"ReqV", "O", "O", "RspV to requestor (NackV if moved on)"},
		{"ReqO", "O", "I", "RspO to requestor"},
		{"ReqO+data", "O", "I", "RspO+data to requestor"},
		{"RvkO", "O", "I", "RspRvkO to LLC"},
		{"Inv", "S", "I", "Ack to LLC"},
		{"ReqS", "O", "S", "RspS to requestor + RspRvkO to LLC"},
	}
	fmt.Fprintf(&b, "%-10s %-9s %-6s %s\n", "Request", "Expected", "Next", "Response")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-9s %-6s %s\n", r.req, r.expect, r.next, r.rsp)
	}
	return b.String()
}

func renderTableV() string {
	var b strings.Builder
	b.WriteString("Table V: simulated cache configurations\n")
	fmt.Fprintf(&b, "%-6s %-10s %-10s %s\n", "Name", "LLC", "CPU L1", "GPU L1")
	for _, c := range Configurations() {
		fmt.Fprintf(&b, "%-6s %-10s %-10s %s\n", c.Name, c.LLC, c.CPU, c.GPU)
	}
	return b.String()
}

func renderTableVI() string {
	p := config.DefaultParams()
	var b strings.Builder
	b.WriteString("Table VI: simulated system parameters\n")
	fmt.Fprintf(&b, "CPU: %d cores @ 2 GHz\n", p.CPUCores)
	fmt.Fprintf(&b, "GPU: %d CUs @ 700 MHz, %d warps per CU\n", p.GPUCUs, p.WarpsPerCU)
	// Every L1 hits in one cycle of its own clock domain (each protocol's
	// DefaultConfig); the CPU MESI L1 stands for all of them.
	fmt.Fprintf(&b, "L1: %d KB, %d-way, hit %d cycle(s)\n",
		p.L1SizeBytes/1024, p.L1Ways, mesi.DefaultConfig(0).HitLatency/sim.CPUCycle)
	fmt.Fprintf(&b, "Spandex LLC: %d MB, %d-way, %d cycles\n",
		p.SpandexLLCBytes/(1024*1024), p.SpandexLLCWays, p.L2HitCycles)
	fmt.Fprintf(&b, "Hierarchical: GPU L2 %d MB (%d cycles) + L3 %d MB (%d cycles)\n",
		p.GPUL2Bytes/(1024*1024), p.L2HitCycles, p.L3Bytes/(1024*1024), p.L3HitCycles)
	fmt.Fprintf(&b, "Store buffer: %d entries; MSHRs: %d entries\n",
		p.StoreBufferEntries, p.MSHREntries)
	fmt.Fprintf(&b, "Memory latency: %d cycles; TU lookup: %d cycle(s)\n",
		p.MemLatencyCycles, p.TULatencyCycles)
	fmt.Fprintf(&b, "NoC: %d-wide mesh, %d cycles/hop, %d B/cycle links\n",
		p.NoCMeshWidth, p.NoCHopCycles, p.NoCBytesPerCyc)
	b.WriteString("(Latency values are representative; the published table was corrupted\n" +
		" in the source text — see DESIGN.md §2.)\n")
	return b.String()
}

// RenderLatency renders a traced Result's latency attribution as text: a
// per-class quantile table (log-bucketed, so quantiles are bucket upper
// bounds) followed by the per-phase wait breakdown. The phase columns of
// each class sum exactly to its total cycles — the recorder closes one
// phase interval per event, so no wait time is dropped or double-counted.
// Requires Options.TraceLatency. With Options.TraceOccupancy it appends one
// row per occupancy series in Result.Metrics.Occupancy: the exact sample
// count and peak occupancy.
func RenderLatency(res Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Request latency: %s on %s\n", res.Workload, res.Config)
	r := res.Latency
	if r == nil {
		b.WriteString("(no data: run with Options.TraceLatency)\n")
		return b.String()
	}
	fmt.Fprintf(&b, "%-8s %10s %12s %10s %10s %10s %12s\n",
		"class", "count", "mean", "p50", "p90", "p99", "max")
	for _, c := range r.Classes {
		fmt.Fprintf(&b, "%-8s %10d %12.0f %10d %10d %10d %12d\n",
			c.Class, c.Count, c.Mean, c.P50, c.P90, c.P99, c.Max)
	}
	if r.Unfinished > 0 {
		fmt.Fprintf(&b, "(%d requests still in flight at quiescence)\n", r.Unfinished)
	}
	b.WriteString("\nPhase breakdown (ticks; 1 CPU cycle = 500 ticks):\n")
	fmt.Fprintf(&b, "%-8s", "class")
	for p := obs.Phase(0); p < obs.NumPhases; p++ {
		fmt.Fprintf(&b, " %12s", p.String())
	}
	fmt.Fprintf(&b, " %14s\n", "total")
	for _, c := range r.Classes {
		fmt.Fprintf(&b, "%-8s", c.Class)
		for _, v := range c.Phases {
			fmt.Fprintf(&b, " %12d", v)
		}
		fmt.Fprintf(&b, " %14d\n", c.TotalTicks)
	}
	if m := res.Metrics; m != nil && len(m.Occupancy) > 0 {
		b.WriteString("\nOccupancy series (node/resource: samples, peak):\n")
		for _, o := range m.Occupancy {
			count, peak := o.Series.Samples()
			fmt.Fprintf(&b, "  node%-3d %-10s %6d samples, peak %d\n",
				o.Node, o.Res, count, peak)
		}
	}
	return b.String()
}

func renderTableVII() string {
	var b strings.Builder
	b.WriteString("Table VII: workload communication patterns and parameters\n")
	names := append(append([]string{}, workload.Microbenchmarks()...), workload.Applications()...)
	for _, n := range names {
		w, err := workload.ByName(n)
		if err != nil {
			continue
		}
		m := w.Meta()
		fmt.Fprintf(&b, "%-12s %-10s part: %-5s sync: %-28s sharing: %-13s locality: %s\n",
			m.Name, m.Suite, m.Partitioning, m.Synchronization, m.Sharing, m.Locality)
		fmt.Fprintf(&b, "%-12s %-10s %s\n", "", "", m.Params)
	}
	return b.String()
}
