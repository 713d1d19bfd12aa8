package spandex

import (
	"math"
	"testing"
)

// totalTraffic sums a figure cell's normalized traffic.
func totalTraffic(f *FigureData, wn, cn string) float64 {
	var s float64
	for _, v := range f.Traffic[wn][cn] {
		s += v
	}
	return s
}

// TestFigure2Shape asserts the qualitative claims the paper makes about
// the synthetic microbenchmarks (paper §V-A): who wins and roughly why.
// Absolute numbers differ from the paper's testbed; the shape must hold.
func TestFigure2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep in -short mode")
	}
	f, err := RunFigure2(Options{Seed: 42, Validate: true})
	if err != nil {
		t.Fatal(err)
	}

	// Indirection: hierarchical configurations pay for routing all CPU-GPU
	// communication through two cache levels.
	hb, sb := f.BestPair("indirection", func(cn string) float64 { return f.Time["indirection"][cn] })
	if sb >= hb {
		t.Errorf("indirection: Sbest time %.2f not better than Hbest %.2f", sb, hb)
	}
	// DeNovo CPU transfers only owned words: SDG traffic below SMG.
	if totalTraffic(f, "indirection", "SDG") >= totalTraffic(f, "indirection", "SMG") {
		t.Errorf("indirection: DeNovo CPU traffic %.2f not below MESI CPU %.2f",
			totalTraffic(f, "indirection", "SDG"), totalTraffic(f, "indirection", "SMG"))
	}

	// ReuseO: DeNovo GPU caches keep ownership of their tiles, so every
	// DeNovo-GPU configuration moves less data than its GPU-coherence twin.
	for _, pair := range [][2]string{{"HMD", "HMG"}, {"SMD", "SMG"}, {"SDD", "SDG"}} {
		d, g := totalTraffic(f, "reuseo", pair[0]), totalTraffic(f, "reuseo", pair[1])
		if d >= g {
			t.Errorf("reuseo: %s traffic %.2f not below %s %.2f", pair[0], d, pair[1], g)
		}
	}

	// ReuseS: only writer-initiated invalidation retains the dense reads;
	// MESI-CPU configurations beat DeNovo-CPU ones on both metrics.
	for _, mesiCfg := range []string{"SMG", "SMD"} {
		for _, dnCfg := range []string{"SDG", "SDD"} {
			if f.Time["reuses"][mesiCfg] >= f.Time["reuses"][dnCfg] {
				t.Errorf("reuses: %s time %.2f not below %s %.2f",
					mesiCfg, f.Time["reuses"][mesiCfg], dnCfg, f.Time["reuses"][dnCfg])
			}
			if totalTraffic(f, "reuses", mesiCfg) >= totalTraffic(f, "reuses", dnCfg) {
				t.Errorf("reuses: %s traffic not below %s", mesiCfg, dnCfg)
			}
		}
	}

	// Headline: the best Spandex configuration beats the best hierarchical
	// one on average for both metrics (paper: -18% time, -40% traffic).
	h := f.ComputeHeadline()
	if h.AvgTime < 0.05 || h.AvgTime > 0.60 {
		t.Errorf("microbenchmark avg time reduction %.0f%% outside credible band", h.AvgTime*100)
	}
	if h.AvgTraffic < 0.05 {
		t.Errorf("microbenchmark avg traffic reduction %.0f%% too small", h.AvgTraffic*100)
	}
}

// TestFigure3Shape asserts the qualitative claims about the collaborative
// applications (paper §V-B).
func TestFigure3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep in -short mode")
	}
	f, err := RunFigure3(Options{Seed: 42, Validate: true})
	if err != nil {
		t.Fatal(err)
	}

	// BC: DeNovo GPU caches exploit the high temporal locality of the
	// atomics, drastically beating the GPU-coherence twin configurations.
	for _, pair := range [][2]string{{"HMD", "HMG"}, {"SMD", "SMG"}, {"SDD", "SDG"}} {
		d, g := f.Time["bc"][pair[0]], f.Time["bc"][pair[1]]
		if d >= g*0.9 {
			t.Errorf("bc: %s time %.2f not clearly below %s %.2f", pair[0], d, pair[1], g)
		}
		if totalTraffic(f, "bc", pair[0]) >= totalTraffic(f, "bc", pair[1]) {
			t.Errorf("bc: %s traffic not below %s", pair[0], pair[1])
		}
	}

	// PR, HSTI, TRNS, TQH: the flat Spandex LLC reduces execution time
	// relative to the hierarchical baseline.
	for _, wn := range []string{"pr", "hsti", "trns", "tqh"} {
		hb, sb := f.BestPair(wn, func(cn string) float64 { return f.Time[wn][cn] })
		if sb >= hb {
			t.Errorf("%s: Sbest time %.2f not better than Hbest %.2f", wn, sb, hb)
		}
	}

	// TRNS: word-granularity ownership avoids false sharing on the packed
	// lock array — SDD is the best configuration.
	for _, cn := range ConfigNames() {
		if cn == "SDD" {
			continue
		}
		if f.Time["trns"]["SDD"] > f.Time["trns"][cn] {
			t.Errorf("trns: SDD %.2f slower than %s %.2f", f.Time["trns"]["SDD"], cn, f.Time["trns"][cn])
		}
	}

	// RSCT: hierarchical sharing means the GPU L2 filters well; Spandex
	// must at least roughly match (within 10%), not necessarily win big.
	hb, sb := f.BestPair("rsct", func(cn string) float64 { return f.Time["rsct"][cn] })
	if sb > hb*1.10 {
		t.Errorf("rsct: Sbest %.2f more than 10%% behind Hbest %.2f", sb, hb)
	}

	// Headline: in the paper's band (16% avg, 29% max time; 27%/58% traffic).
	h := f.ComputeHeadline()
	if h.AvgTime < 0.05 || h.AvgTime > 0.40 {
		t.Errorf("application avg time reduction %.0f%% outside credible band (paper: 16%%)", h.AvgTime*100)
	}
	if h.MaxTime < 0.15 {
		t.Errorf("application max time reduction %.0f%% too small (paper: 29%%)", h.MaxTime*100)
	}
	if h.AvgTraffic < 0.05 {
		t.Errorf("application avg traffic reduction %.0f%% too small (paper: 27%%)", h.AvgTraffic*100)
	}
}

// TestAllWorkloadsValidateEverywhere is the broad end-to-end correctness
// net: every workload's final-state oracle must pass on every
// configuration, with coherence invariant checking enabled.
func TestAllWorkloadsValidateEverywhere(t *testing.T) {
	if testing.Short() {
		t.Skip("full validation sweep in -short mode")
	}
	names := append(append([]string{}, Figure2Workloads()...), Figure3Workloads()...)
	for _, wn := range names {
		for _, cn := range ConfigNames() {
			wn, cn := wn, cn
			t.Run(wn+"/"+cn, func(t *testing.T) {
				w, err := WorkloadByName(wn)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := Run(w, Options{ConfigName: cn, Seed: 1,
					CheckInvariants: true, Validate: true}); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestComputeHeadlineDeterministic requires ComputeHeadline to be a pure
// function of the figure: per-class traffic shares whose float sum
// depends on addition order must still give bit-identical headline
// numbers on every call.
func TestComputeHeadlineDeterministic(t *testing.T) {
	shares := []float64{0.1, 0.2, 0.3, 0.7, 0.11, 0.13, 0.17}
	classes := []string{"ReqV", "ReqS", "ReqWT", "ReqO", "ReqWB", "Probe", "Atomic"}
	f := &FigureData{
		Workloads: []string{"a", "b"},
		Configs:   ConfigNames(),
		Time:      map[string]map[string]float64{},
		Traffic:   map[string]map[string]map[string]float64{},
	}
	for wi, wn := range f.Workloads {
		f.Time[wn] = map[string]float64{}
		f.Traffic[wn] = map[string]map[string]float64{}
		for ci, cn := range f.Configs {
			f.Time[wn][cn] = 1 + 0.1*float64(ci)
			f.Traffic[wn][cn] = map[string]float64{}
			for k, c := range classes {
				f.Traffic[wn][cn][c] = shares[(k+ci+wi)%len(shares)] / float64(1+ci)
			}
		}
	}
	bits := func(h Headline) []uint64 {
		out := []uint64{math.Float64bits(h.AvgTraffic), math.Float64bits(h.MaxTraffic)}
		for _, wn := range f.Workloads {
			out = append(out, math.Float64bits(h.TrafficReduction[wn]))
		}
		return out
	}
	want := bits(f.ComputeHeadline())
	for i := 0; i < 200; i++ {
		got := bits(f.ComputeHeadline())
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("call %d: headline value %d is %#x, first call gave %#x", i, j, got[j], want[j])
			}
		}
	}
}
