package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"
	"time"

	spandex "spandex"
)

// testSizes keep every workload's pass short except headline, which is
// always the full 9 × 6 sweep.
var testSizes = sizes{
	scalePhases: 2,
	mcheck:      []mcItem{{"mesi+gpu", "mp"}, {"mesi+denovo", "wb-race"}},
	fuzzCases:   4,
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer()...) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q does not match %s", d.name, nameRE)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("metric %s: unit %q does not match %s", d.name, d.unit, unitRE)
		}
		if seen[d.name] {
			t.Errorf("metric %s declared twice", d.name)
		}
		seen[d.name] = true
	}
	for _, d := range reportOnly {
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) || seen[d.name] {
			t.Errorf("report-only metric %+v: bad or repeated name or unit", d)
		}
		seen[d.name] = true
	}
}

// TestBenchmarkJSONMatchesCode holds BENCHMARK.json's workloads, metrics,
// units, directions and bounds equal to the ones the code reports and
// judges with.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b := readBenchmarkJSON(t)
	var wls []string
	for _, w := range b.Workloads {
		wls = append(wls, w.Name)
	}
	if strings.Join(wls, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, code %v", wls, workloadNames)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, code %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, code has %+v", i, m, d)
		}
	}
	pl := perLayer()
	if len(b.PerLayer) != len(pl) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, code %d", len(b.PerLayer), len(pl))
	}
	for i, m := range b.PerLayer {
		if m.Name != pl[i].name || m.Unit != pl[i].unit || m.Better != pl[i].better {
			t.Errorf("per_layer[%d] = %+v, code has %+v", i, m, pl[i])
		}
	}
}

func runQuiet(t *testing.T, workload string, seed uint64, trace bool) *result {
	t.Helper()
	cfg := runConfig{workload: workload, seed: seed, trace: trace, root: "..", sizes: testSizes}
	var out bytes.Buffer
	res, err := run(cfg, &out)
	if err != nil {
		t.Fatalf("%s seed %d trace %v: %v", workload, seed, trace, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s seed %d trace %v: correct=%v attempted=%d failed=%d\n%s",
			workload, seed, trace, res.Correct, res.Attempted, res.Failed, out.String())
	}
	return res
}

// TestEveryMetricEmitted runs every workload untraced and twice traced.
// Each declared metric must come out with its unit (end-to-end ones never
// 0), and the deterministic ones must repeat exactly across the runs.
func TestEveryMetricEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	deterministic := []string{"model.traffic_bytes_per_op", "model.fig_time_err_pp",
		"model.fig_traffic_err_pp", "sim.events", "mcheck.states"}
	for _, wl := range workloadNames {
		e2e := runQuiet(t, wl, 42, false)
		for _, d := range endToEnd {
			v, ok := e2e.Metrics[d.name]
			if !ok || v.Unit != d.unit || v.Value == 0 {
				t.Errorf("%s: end-to-end %s = %+v (present %v), want unit %s and a nonzero value", wl, d.name, v, ok, d.unit)
			}
		}
		if len(e2e.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics emitted, want %d", wl, len(e2e.Metrics), len(endToEnd))
		}
		first := runQuiet(t, wl, 42, true)
		second := runQuiet(t, wl, 42, true)
		for _, d := range perLayer() {
			v, ok := first.Metrics[d.name]
			if !ok || v.Unit != d.unit {
				t.Errorf("%s: per-layer %s = %+v (present %v), want unit %s", wl, d.name, v, ok, d.unit)
			}
		}
		if len(first.Metrics) != len(perLayer()) {
			t.Errorf("%s: %d per-layer metrics emitted, want %d", wl, len(first.Metrics), len(perLayer()))
		}
		for _, n := range deterministic {
			if a, b := first.Metrics[n].Value, second.Metrics[n].Value; a != b {
				t.Errorf("%s: %s = %v then %v, want identical runs", wl, n, a, b)
			}
		}
		switch wl {
		case "headline":
			for _, n := range []string{"model.traffic_bytes_per_op", "model.fig_time_err_pp", "sim.events"} {
				if first.Metrics[n].Value == 0 {
					t.Errorf("headline: %s is 0", n)
				}
			}
		case "mcheck":
			if first.Metrics["mcheck.states"].Value == 0 {
				t.Error("mcheck: mcheck.states is 0")
			}
		}
	}
}

// TestSecondSeed checks that another seed changes the headline and fuzz
// inputs and still passes the correctness gate.
func TestSecondSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the headline sweep")
	}
	for _, wl := range []string{"headline", "fuzz"} {
		outs := map[uint64]*simAcc{}
		for _, seed := range []uint64{42, 7} {
			w, err := newWorkload(wl, seed, "..", testSizes)
			if err != nil {
				t.Fatal(err)
			}
			g := &gate{}
			acc := newSimAcc()
			w.pass(&runner{seed: seed, gate: g, acc: acc})
			if g.failed != 0 || g.attempted == 0 {
				t.Fatalf("%s seed %d: %d of %d checks failed: %v", wl, seed, g.failed, g.attempted, g.failures)
			}
			outs[seed] = acc
		}
		if outs[42].ops == outs[7].ops && outs[42].bytes == outs[7].bytes && outs[42].events == outs[7].events {
			t.Errorf("%s: seeds 42 and 7 simulated identical work (ops %d, bytes %d)", wl, outs[7].ops, outs[7].bytes)
		}
	}
}

// TestPinsMatchRun checks that the benchmark's step-by-step cell is the
// same run spandex.Run makes: sampled cells reproduce their pins through
// the library's own entry point.
func TestPinsMatchRun(t *testing.T) {
	d, err := newDeterminism()
	if err != nil {
		t.Fatal(err)
	}
	if len(d.pins) != 56 {
		t.Fatalf("%d pins, want 54 headline + 2 scale64", len(d.pins))
	}
	for _, key := range []string{"pr/SDD", "tqh/HMG", "reuses/SMG"} {
		wn, cfg, _ := strings.Cut(key, "/")
		w, err := spandex.WorkloadByName(wn)
		if err != nil {
			t.Fatal(err)
		}
		res, err := spandex.Run(w, spandex.Options{ConfigName: cfg, Seed: pinSeed, Validate: true})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := res.Fingerprint(), d.pins[key].Fingerprint; got != want {
			t.Errorf("%s: spandex.Run fingerprint %#x, pinned %#x", key, got, want)
		}
	}
}

// TestAvgTrafficReduction holds the benchmark's ordered traffic average to
// the quantity ComputeHeadline reports.
func TestAvgTrafficReduction(t *testing.T) {
	f := &spandex.FigureData{Workloads: []string{"a", "b"}, Configs: spandex.ConfigNames(),
		Time: map[string]map[string]float64{}, Traffic: map[string]map[string]map[string]float64{}}
	for i, wn := range f.Workloads {
		f.Time[wn] = map[string]float64{}
		f.Traffic[wn] = map[string]map[string]float64{}
		for j, cn := range f.Configs {
			f.Time[wn][cn] = 1
			f.Traffic[wn][cn] = map[string]float64{"ReqV": 0.1 * float64(j+1), "ReqS": 0.3 / float64(i+j+1), "Probe": 0.07}
		}
	}
	got, want := avgTrafficReduction(f), f.ComputeHeadline().AvgTraffic
	if math.Abs(got-want) > 1e-12 || got == 0 {
		t.Errorf("avgTrafficReduction = %v, ComputeHeadline().AvgTraffic = %v", got, want)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) for these inputs.
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1, 4, 2}, 1.25, 4.75},
		{[]float64{1, 2}, 0.75, 2.25},
	}
	for _, c := range cases {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestCPUSharesFromProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiling unavailable:", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	var keep [][]byte
	for time.Now().Before(deadline) {
		keep = append(keep, make([]byte, 1024))
		if len(keep) > 4096 {
			keep = keep[:0]
		}
	}
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	shares, total := cpuShares(samples)
	if total == 0 {
		t.Skip("no samples taken")
	}
	sum := 0.0
	for _, b := range cpuBuckets {
		sum += shares[b]
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("exclusive shares sum to %v, want 1", sum)
	}
	if shares["alloc"]+shares["gc"] == 0 {
		t.Errorf("an allocation loop shows no alloc or gc share: %v", shares)
	}
}

func TestClassifyFrame(t *testing.T) {
	for name, want := range map[string]string{
		"spandex/internal/sim.(*Engine).Run":           "sim",
		"spandex/internal/mcheck.(*hasher).walk":       "mcheck",
		"spandex.(*System).Run":                        "spandex",
		"iter.Pull[...].func1":                         "coro",
		"runtime.coroswitch":                           "coro",
		"internal/runtime/maps.(*Map).getWithKeySmall": "maps",
		"runtime.mapaccess2_fast64":                    "maps",
		"runtime.mallocgc":                             "alloc",
		"runtime.memmove":                              "",
	} {
		if got := classifyFrame(frame{name: name}); got != want {
			t.Errorf("classifyFrame(%s) = %q, want %q", name, got, want)
		}
	}
	if !isHashFrame(frame{name: "spandex/internal/mcheck.(*world).hashWithPerm", file: "/x/world.go"}) {
		t.Error("hashWithPerm is not a hash frame")
	}
	if isHashFrame(frame{name: "spandex/internal/mcheck.Explore", file: "/x/mcheck.go"}) {
		t.Error("Explore is a hash frame")
	}
}

func fakeLog(workload string, seed uint64, trace int, host hostStamp, metrics map[string]float64) string {
	host.Seed = seed
	hj, _ := json.Marshal(host)
	var b strings.Builder
	b.WriteString("perfbench workload=" + workload + " seed=" + itoa(seed) + " seconds=1 trace=" + itoa(uint64(trace)) + "\n")
	b.WriteString("host " + string(hj) + "\n")
	for k, v := range metrics {
		printMetric(&b, k, metricValue{v, "x"})
	}
	return b.String()
}

func itoa(v uint64) string { return strconv.FormatUint(v, 10) }

func logsOf(t *testing.T, texts ...string) []*runLog {
	t.Helper()
	var out []*runLog
	for i, s := range texts {
		l, err := parseRunLog("log"+itoa(uint64(i)), strings.NewReader(s))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, l)
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	host := hostStamp{NProc: 2, GOMAXPROCS: 2, Go: "go1", CPU: "cpu", Git: "a"}
	var base, change, slow []string
	for s := uint64(1); s <= 10; s++ {
		j := float64(s%3) * 0.001
		base = append(base, fakeLog("headline", s, 0, host, map[string]float64{"wall_s": 1 + j}))
		change = append(change, fakeLog("headline", s, 0, host, map[string]float64{"wall_s": 0.8 + j}))
		slow = append(slow, fakeLog("headline", s, 0, host, map[string]float64{"wall_s": 1.3 + j}))
	}
	var out bytes.Buffer
	if st := compareLogs(logsOf(t, base...), logsOf(t, change...), &out); st != 0 || !strings.Contains(out.String(), "better") {
		t.Errorf("faster change: status %d\n%s", st, out.String())
	}
	out.Reset()
	if st := compareLogs(logsOf(t, base...), logsOf(t, slow...), &out); st != 1 || !strings.Contains(out.String(), "WORSE") {
		t.Errorf("slower change: status %d\n%s", st, out.String())
	}
	// A deterministic output is held pair by pair: equal is same, any
	// difference for the same seed is a change, different seeds pair with
	// nothing.
	det := func(seed uint64, v float64) string {
		return fakeLog("headline", seed, 0, host, map[string]float64{"traffic_bytes_per_op": v})
	}
	for _, c := range []struct {
		change  string
		status  int
		verdict string
	}{
		{det(1, 11.5), 0, "same"},
		{det(1, 11.6), 1, "CHANGED"},
		{det(2, 11.6), 0, "unpaired"},
	} {
		out.Reset()
		st := compareLogs(logsOf(t, det(1, 11.5)), logsOf(t, c.change), &out)
		if st != c.status || !strings.Contains(out.String(), c.verdict) {
			t.Errorf("deterministic metric: status %d, want %d with %s\n%s", st, c.status, c.verdict, out.String())
		}
	}
	other := host
	other.CPU = "another cpu"
	if st := compareLogs(logsOf(t, base...), logsOf(t, fakeLog("headline", 1, 0, other, map[string]float64{"wall_s": 1})), io.Discard); st != 2 {
		t.Errorf("results from different hosts compared (status %d)", st)
	}
}

func TestCompareLayerTable(t *testing.T) {
	host := hostStamp{NProc: 2, GOMAXPROCS: 2, Go: "go1", CPU: "cpu"}
	base := fakeLog("headline", 1, 1, host, map[string]float64{"cpu.sim": 0.30, "cpu.coro": 0.20, "sim.events": 100})
	change := fakeLog("headline", 1, 1, host, map[string]float64{"cpu.sim": 0.31, "cpu.coro": 0.10, "sim.events": 100})
	var out bytes.Buffer
	compareLogs(logsOf(t, base), logsOf(t, change), &out)
	s := out.String()
	coro, sim := strings.Index(s, "cpu.coro"), strings.Index(s, "cpu.sim")
	if coro < 0 || sim < 0 || coro > sim || strings.Contains(s, "sim.events") {
		t.Errorf("per-layer table should list cpu.coro before cpu.sim and omit unmoved metrics:\n%s", s)
	}
}
