// Command perfbench is the repository's benchmark. It runs one workload
// (headline, scale64, mcheck or fuzz) for a fixed time from a single
// process, checks every output, and prints each metric by name and unit,
// ending with one JSON result line.
//
//	perfbench -workload headline -seed 42 -seconds 20 -trace 0
//	perfbench compare BASE_LOG... -- CHANGE_LOG...
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it makes
// a separate traced run and reports the per-layer metrics. run.sh builds
// it from source and runs it from the repository root. README.md defines
// every metric and why each workload is there.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	spandex "spandex"
)

// metricDef is one reported metric. The end-to-end and per-layer lists
// below are the ones BENCHMARK.json declares (a test holds them equal).
// An end-to-end metric's bound is the share of the parent's median by
// which a change may worsen it; bound 0 marks a deterministic model output,
// which must repeat exactly for the same seed.
type metricDef struct {
	name, unit, better string
	bound              float64
}

var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"work_per_s", "1/s", "higher", 0.25},
	{"alloc_mb", "MB", "lower", 0.10},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// reportOnly are the end-to-end figures the report prints beside the
// declared ones: work_per_s under each workload's own name, the simulated
// model outputs, and the failure ratio. Compare mode judges them too.
var reportOnly = []metricDef{
	{"sim_ops_per_s", "ops/s", "higher", 0.25},
	{"mc_states_per_s", "states/s", "higher", 0.25},
	{"fuzz_cases_per_s", "cases/s", "higher", 0.25},
	{"traffic_bytes_per_op", "B/op", "lower", 0},
	{"fig_time_err_pp", "pp", "lower", 0},
	{"fig_traffic_err_pp", "pp", "lower", 0},
	{"fail_ratio", "ratio", "lower", 0},
}

// workUnit names, per workload, what work_per_s counts.
var workUnit = map[string]string{
	"headline": "sim_ops_per_s",
	"scale64":  "sim_ops_per_s",
	"mcheck":   "mc_states_per_s",
	"fuzz":     "fuzz_cases_per_s",
}

// endToEndDef finds a declared or report-only end-to-end metric.
func endToEndDef(name string) (metricDef, bool) {
	for _, d := range append(append([]metricDef{}, endToEnd...), reportOnly...) {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// spanMetrics map per-layer metric names to the span they total.
var spanMetrics = []struct{ metric, span string }{
	{"spandex.NewSystem_s", "spandex.NewSystem"},
	{"workload.Build_s", "workload.Build"},
	{"spandex.Attach_s", "spandex.Attach"},
	{"spandex.Run_s", "spandex.Run"},
	{"spandex.Validate_s", "spandex.Validate"},
	{"spandex.BuildFigure_s", "spandex.BuildFigure"},
	{"mcheck.Explore_s", "mcheck.Explore"},
	{"conform.Generate_s", "conform.Generate"},
	{"conform.CheckCase_s", "conform.CheckCase"},
}

// perLayer lists the per-layer metrics in report order. Shares of CPU,
// times, waits and work counts are better lower; hit ratios and the
// model checker's reduction counts are better higher.
func perLayer() []metricDef {
	var out []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{name: n, unit: unit, better: better})
		}
	}
	for _, b := range cpuBuckets {
		add("share", "lower", "cpu."+b)
	}
	for _, b := range cpuInclusive {
		add("share", "lower", "cpu."+b)
	}
	add("count", "lower", "sim.ops", "sim.events")
	add("events/op", "lower", "sim.events_per_op")
	add("ratio", "higher", "mesi.hit_ratio", "denovo.hit_ratio", "gpucoh.hit_ratio", "hmesi.hit_ratio")
	add("ratio", "lower", "core.llc_miss_ratio")
	add("count", "lower", "core.forwards", "core.revokes", "core.queued", "noc.msgs")
	add("B", "lower", "noc.bytes")
	add("share", "lower", "noc.link_util_max")
	add("ticks/msg", "lower", "noc.queue_delay_mean")
	add("count", "lower", "dram.accesses")
	add("share", "lower", "dram.bw_util")
	add("ticks/req", "lower", waitNames...)
	add("count", "lower", "mcheck.states", "mcheck.transitions")
	add("count", "higher", "mcheck.ample_commits", "mcheck.sleep_skips")
	add("B/op", "lower", "model.traffic_bytes_per_op")
	add("pp", "lower", "model.fig_time_err_pp", "model.fig_traffic_err_pp")
	for _, s := range spanMetrics {
		add("s", "lower", s.metric)
	}
	for _, c := range spandex.ConfigNames() {
		add("s", "lower", "conform.RunCase_s."+c)
	}
	for _, w := range headlineWorkloads {
		add("s", "lower", "run_s."+w)
	}
	for _, c := range spandex.ConfigNames() {
		add("s", "lower", "run_s."+c)
	}
	add("ratio", "lower", "obs.trace_overhead", "obs.sim_trace_overhead")
	return out
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of every run's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	var (
		wl      = flag.String("workload", "headline", "workload: headline, scale64, mcheck or fuzz")
		seed    = flag.Uint64("seed", pinSeed, "workload input seed")
		secs    = flag.Float64("seconds", 30, "seconds to measure")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		root    = flag.String("root", ".", "repository root (holds docs/mcheck/baseline.json)")
		pinPath = flag.String("update-pins", "", "write the seed-42 headline and scale64 summaries to this file and exit")
	)
	flag.Parse()
	if *pinPath != "" {
		if err := writePins(*pinPath); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	cfg := runConfig{workload: *wl, seed: *seed, budget: time.Duration(*secs * float64(time.Second)),
		trace: *trace == 1, root: *root, traceDir: filepath.Join(*root, ".bench_build", "trace"), sizes: fullSizes}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

type runConfig struct {
	workload string
	seed     uint64
	budget   time.Duration
	trace    bool
	root     string
	// traceDir, when set, receives the traced run's spans and CPU profile.
	traceDir string
	sizes    sizes
}

// run measures one workload and returns the result line; the human
// report goes to w.
func run(cfg runConfig, w io.Writer) (*result, error) {
	bw, err := newWorkload(cfg.workload, cfg.seed, cfg.root, cfg.sizes)
	if err != nil {
		return nil, err
	}
	host := newHostStamp(cfg.root, cfg.seed)
	hj, _ := json.Marshal(host)
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%g trace=%d\n",
		cfg.workload, cfg.seed, cfg.budget.Seconds(), b2i(cfg.trace))
	fmt.Fprintf(w, "host %s\n", hj)
	g := &gate{}
	var metrics map[string]metricValue
	if cfg.trace {
		metrics, err = tracedRun(cfg, bw, g, w)
		if err != nil {
			return nil, err
		}
	} else {
		metrics = untracedRun(cfg, bw, g, w)
	}
	for _, f := range g.failures {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
	fmt.Fprintf(w, "checked %d items, %d failed (fail_ratio %.4g)\n", g.attempted, g.failed,
		ratio(float64(g.failed), float64(g.attempted)))
	return &result{Correct: g.failed == 0 && g.attempted > 0, Attempted: g.attempted, Failed: g.failed,
		Metrics: metrics}, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func logPass(w io.Writer, phase string) func(i int, s passStat) {
	return func(i int, s passStat) {
		fmt.Fprintf(w, "pass %s%d wall=%.4fs setup=%.4fs work=%.0f alloc=%.1fMB\n",
			phase, i+1, s.wall.Seconds(), s.setup.Seconds(), s.work, float64(s.alloc)/1e6)
	}
}

func printMetric(w io.Writer, name string, v metricValue) {
	fmt.Fprintf(w, "metric %-28s %14.6g %s\n", name, v.Value, v.Unit)
}

// untracedRun measures passes for the whole budget with nothing but the
// pass clock on, and derives the end-to-end metrics.
func untracedRun(cfg runConfig, bw benchWorkload, g *gate, w io.Writer) map[string]metricValue {
	acc := newSimAcc()
	stats := passes(bw, cfg.budget, func(i int) *runner {
		r := &runner{seed: cfg.seed, gate: g}
		if i == 0 {
			r.acc = acc
		}
		return r
	}, logPass(w, ""))
	var walls, setups, rates, allocs []float64
	for _, s := range stats {
		walls = append(walls, s.wall.Seconds())
		setups = append(setups, s.setup.Seconds())
		rates = append(rates, s.work/s.wall.Seconds())
		allocs = append(allocs, float64(s.alloc)/1e6)
	}
	m := map[string]metricValue{
		"wall_s":      {median(walls), "s"},
		"setup_s":     {median(setups), "s"},
		"work_per_s":  {median(rates), "1/s"},
		"alloc_mb":    {median(allocs), "MB"},
		"peak_rss_mb": {peakRSSMB(), "MB"},
	}
	for _, d := range endToEnd {
		printMetric(w, d.name, m[d.name])
	}
	// The same throughput under the workload's own name, and the
	// deterministic model outputs a user of the simulator reads.
	report := map[string]float64{
		workUnit[cfg.workload]: m["work_per_s"].Value,
		"fail_ratio":           ratio(float64(g.failed), float64(g.attempted)),
	}
	if cfg.workload != "mcheck" {
		report["traffic_bytes_per_op"] = acc.trafficPerOp()
	}
	if cfg.workload == "headline" {
		report["fig_time_err_pp"] = acc.figTimeErr
		report["fig_traffic_err_pp"] = acc.figTrafficErr
	}
	for _, d := range reportOnly {
		if v, ok := report[d.name]; ok {
			printMetric(w, d.name, metricValue{v, d.unit})
		}
	}
	fmt.Fprintf(w, "passes %d\n", len(stats))
	return m
}

// tracedRun makes the separate traced run. Phase A times untraced passes
// as the overhead reference and collects the simulated counters; phase B
// records spans under a CPU profile; phase C makes one pass with the
// simulator's own observability on (latency attribution, occupancy, the
// metrics engine; for fuzz, each configuration run alone). Every phase
// goes through the same correctness gate, so B and C must reproduce A's
// fingerprints: observer neutrality checked from outside.
func tracedRun(cfg runConfig, bw benchWorkload, g *gate, w io.Writer) (map[string]metricValue, error) {
	accA := newSimAcc()
	a := passes(bw, cfg.budget*3/10, func(i int) *runner {
		r := &runner{seed: cfg.seed, gate: g}
		if i == 0 {
			r.acc = accA
		}
		return r
	}, logPass(w, "A"))

	trB := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	b := passes(bw, cfg.budget*4/10, func(int) *runner {
		return &runner{seed: cfg.seed, gate: g, tr: trB}
	}, logPass(w, "B"))
	pprof.StopCPUProfile()

	var c []passStat
	trC := newTracer()
	accC := newSimAcc()
	if cfg.workload != "mcheck" {
		c = passes(bw, 0, func(int) *runner {
			return &runner{seed: cfg.seed, gate: g, tr: trC, observe: true, acc: accC}
		}, logPass(w, "C"))
	}

	samples, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	shares, nSamples := cpuShares(samples)

	m := map[string]metricValue{}
	put := func(name string, v float64) { m[name] = metricValue{Value: v} }
	for k, v := range shares {
		put("cpu."+k, v)
	}
	accA.counterMetrics(put)
	accC.observedMetrics(put)
	nb := float64(len(b))
	for _, s := range spanMetrics {
		put(s.metric, trB.sum(s.span, nil).Seconds()/nb)
	}
	for _, cn := range spandex.ConfigNames() {
		put("conform.RunCase_s."+cn, trC.sum("conform.RunCase", func(tag string) bool { return tag == cn }).Seconds()/float64(max(1, len(c))))
		put("run_s."+cn, trB.sum("spandex.Run", func(tag string) bool { return tagConfig(tag) == cn }).Seconds()/nb)
	}
	for _, wn := range headlineWorkloads {
		put("run_s."+wn, trB.sum("spandex.Run", func(tag string) bool { return tagWorkload(tag) == wn }).Seconds()/nb)
	}
	wallA := medianWall(a)
	put("obs.trace_overhead", ratio(medianWall(b), wallA))
	put("obs.sim_trace_overhead", ratio(medianWall(c), wallA))

	defs := perLayer()
	for i, d := range defs {
		v, ok := m[d.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s not computed", d.name)
		}
		v.Unit = d.unit
		m[d.name] = v
		printMetric(w, defs[i].name, v)
	}
	fmt.Fprintf(w, "profile %d samples over %d passes; spans (phase B):\n", nSamples, len(b))
	for _, t := range trB.totals() {
		fmt.Fprintf(w, "span %-24s calls=%-6d total=%.4fs self=%.4fs\n", t.Name, t.Calls, t.Total.Seconds(), t.Self.Seconds())
	}
	if cfg.traceDir != "" {
		if err := writeTrace(cfg, prof.Bytes(), trB, trC); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func medianWall(ps []passStat) float64 {
	var ws []float64
	for _, p := range ps {
		ws = append(ws, p.wall.Seconds())
	}
	if len(ws) == 0 {
		return 0
	}
	return median(ws)
}

// Span tags of simulated cells are "workload/config".
func tagWorkload(tag string) string {
	w, _, _ := strings.Cut(tag, "/")
	return w
}

func tagConfig(tag string) string {
	_, c, _ := strings.Cut(tag, "/")
	return c
}

// writeTrace saves the traced run's spans (JSON, one list per phase) and
// CPU profile.
func writeTrace(cfg runConfig, prof []byte, profiled, observed *tracer) error {
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	js, err := json.Marshal(map[string][]span{"profiled": profiled.spans, "observed": observed.spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+"-spans.json", js, 0o644); err != nil {
		return err
	}
	return os.WriteFile(base+"-cpu.pprof", prof, 0o644)
}
