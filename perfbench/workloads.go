package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	spandex "spandex"
	"spandex/internal/conform"
	"spandex/internal/mcheck"
	"spandex/internal/workload"
)

// benchWorkload is one of the benchmark's workloads with its inputs
// already generated from the seed. pass runs it once, checking every
// output through r.gate.
type benchWorkload interface {
	pass(r *runner) passOut
}

// workloadNames are the benchmark's workloads in report order.
var workloadNames = []string{"headline", "scale64", "mcheck", "fuzz"}

// headlineWorkloads are the Figure 2 and Figure 3 workloads.
var headlineWorkloads = append(spandex.Figure2Workloads(), spandex.Figure3Workloads()...)

// sizes fixes how much work one pass does. The benchmark runs fullSizes;
// the package's tests use smaller ones.
type sizes struct {
	scalePhases int
	mcheck      []mcItem
	fuzzCases   int // per geometry
}

type mcItem struct{ pairing, scenario string }

var fullSizes = sizes{
	scalePhases: 16,
	// One symmetric six-device scenario and one eviction race with
	// thousands of states.
	mcheck:    []mcItem{{"mesi+gpu", "fan6"}, {"mesi+gpu", "wb-stale"}},
	fuzzCases: 100,
}

// mcheckSetupReps is how many times an mcheck pass times its set-up; the
// pass reports the median.
const mcheckSetupReps = 3

// pinSeed is the seed the pinned fingerprints were taken at (the seed
// EXPERIMENTS.md uses).
const pinSeed = 42

//go:embed pins.jsonl
var pinsJSONL []byte

func newWorkload(name string, seed uint64, root string, sz sizes) (benchWorkload, error) {
	switch name {
	case "headline":
		ws, err := registered(headlineWorkloads)
		if err != nil {
			return nil, err
		}
		return newSweep(seed, ws, spandex.ConfigNames(), nil, true, true)
	case "scale64":
		p := spandex.ScaleParams(16, 48, 0)
		w := &workload.ScaleMix{ChunkWords: 64, SharedWords: 256, Phases: sz.scalePhases}
		pinned := sz.scalePhases == fullSizes.scalePhases
		return newSweep(seed, []spandex.Workload{w}, []string{"SDD", "SMG"}, &p, false, pinned)
	case "mcheck":
		return newMcheckBench(root, sz)
	case "fuzz":
		return newFuzzBench(seed, sz.fuzzCases), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

func registered(names []string) ([]spandex.Workload, error) {
	out := make([]spandex.Workload, len(names))
	for i, n := range names {
		w, err := spandex.WorkloadByName(n)
		if err != nil {
			return nil, err
		}
		out[i] = w
	}
	return out, nil
}

// determinism checks each cell's Result against the pinned seed-42
// summary when one applies, and against the cell's first result in this
// process otherwise. Either way a mismatch names the first measurement
// that differs.
type determinism struct {
	pins map[string]spandex.RunSummary
	seen map[string]spandex.Result
}

func newDeterminism() (*determinism, error) {
	sums, err := spandex.ReadSummaryJSONL(bytes.NewReader(pinsJSONL))
	if err != nil {
		return nil, fmt.Errorf("pins.jsonl: %w", err)
	}
	d := &determinism{pins: map[string]spandex.RunSummary{}, seen: map[string]spandex.Result{}}
	for _, s := range sums {
		d.pins[s.Workload+"/"+s.Config] = s
	}
	return d, nil
}

func (d *determinism) check(g *gate, seed uint64, res spandex.Result) {
	key := res.Workload + "/" + res.Config
	if pin, ok := d.pins[key]; ok && seed == pinSeed {
		got := spandex.Summarize(res, seed)
		g.check(got.Fingerprint == pin.Fingerprint, "%s seed %d: fingerprint %#016x, pinned %#016x: first difference %s",
			key, seed, got.Fingerprint, pin.Fingerprint, firstSummaryDiff(pin, got))
	}
	if first, ok := d.seen[key]; ok {
		err := spandex.DiffResults(first, res)
		g.check(err == nil, "%s seed %d: differs from this run's first pass: %v", key, seed, err)
		return
	}
	d.seen[key] = res
}

// firstSummaryDiff names the first measurement on which two summaries of
// one cell differ, in spandex.DiffSummaries order.
func firstSummaryDiff(pin, got spandex.RunSummary) string {
	switch d := pin.Snapshot.FirstDiff(got.Snapshot); {
	case d != "":
		return d
	case pin.Ops != got.Ops:
		return fmt.Sprintf("ops: pinned %d, got %d", pin.Ops, got.Ops)
	case pin.MemHash != got.MemHash:
		return fmt.Sprintf("final memory hash: pinned %#016x, got %#016x", pin.MemHash, got.MemHash)
	}
	return "none in the measurements (workload or configuration identity)"
}

// sweep is a workloads × configs matrix run cell by cell through the
// public step API (NewSystem, Build, Attach, Run, Validate), so set-up is
// timed apart from simulation. Caches start empty in every cell.
type sweep struct {
	seed      uint64
	workloads []spandex.Workload
	configs   []string
	params    *spandex.SystemParams
	figures   bool
	det       *determinism
	tpb       float64 // NoC ticks per byte
}

// newSweep builds a sweep; pinned holds its cells to pins.jsonl at the
// pin seed (only the benchmark's own sizes were pinned).
func newSweep(seed uint64, ws []spandex.Workload, configs []string, p *spandex.SystemParams, figures, pinned bool) (*sweep, error) {
	det, err := newDeterminism()
	if err != nil {
		return nil, err
	}
	if !pinned {
		det.pins = nil
	}
	params := spandex.DefaultParams()
	if p != nil {
		params = *p
	}
	return &sweep{seed: seed, workloads: ws, configs: configs, params: p, figures: figures, det: det,
		tpb: float64(params.NoCTicksPerByte())}, nil
}

func (s *sweep) options(cfg string, observe bool) spandex.Options {
	opt := spandex.Options{ConfigName: cfg, Params: s.params, Seed: s.seed, Validate: true}
	if observe {
		opt.TraceLatency = true
		opt.TraceOccupancy = true
		opt.Metrics = spandex.AllMetrics()
	}
	return opt
}

// cell runs one (workload, config) exactly as spandex.Run does, timing
// each step. It returns the set-up time (NewSystem + Build + Attach).
func (s *sweep) cell(r *runner, w spandex.Workload, cfg string) (spandex.Result, time.Duration, error) {
	name := w.Meta().Name
	tag := name + "/" + cfg
	opt := s.options(cfg, r.observe)
	t0 := time.Now()
	sp := r.tr.begin("spandex.NewSystem", tag)
	sys, err := spandex.NewSystem(opt)
	r.tr.end(sp)
	if err != nil {
		return spandex.Result{}, time.Since(t0), err
	}
	sp = r.tr.begin("workload.Build", tag)
	prog := w.Build(sys.Machine(), opt.Seed)
	r.tr.end(sp)
	defer prog.Close()
	sp = r.tr.begin("spandex.Attach", tag)
	err = sys.Attach(prog)
	r.tr.end(sp)
	setup := time.Since(t0)
	if err != nil {
		return spandex.Result{}, setup, err
	}
	sp = r.tr.begin("spandex.Run", tag)
	res, err := sys.Run(opt.MaxTime)
	r.tr.end(sp)
	if err != nil {
		return res, setup, err
	}
	res.Workload = name
	if prog.Validate != nil {
		sp = r.tr.begin("spandex.Validate", tag)
		err = prog.Validate(sys.Reader())
		r.tr.end(sp)
		if err != nil {
			return res, setup, fmt.Errorf("validation failed: %w", err)
		}
	}
	return res, setup, nil
}

func (s *sweep) pass(r *runner) passOut {
	var out passOut
	var cells []spandex.Cell
	for _, w := range s.workloads {
		for _, cfg := range s.configs {
			sp := r.tr.begin("cell", w.Meta().Name+"/"+cfg)
			res, setup, err := s.cell(r, w, cfg)
			r.tr.end(sp)
			out.setup += setup
			r.gate.check(err == nil, "%s/%s seed %d: %v", w.Meta().Name, cfg, s.seed, err)
			if err != nil {
				continue
			}
			s.det.check(r.gate, s.seed, res)
			r.acc.add(res, s.tpb)
			out.work += float64(res.Ops)
			cells = append(cells, spandex.Cell{Workload: res.Workload, Config: cfg, Result: res})
		}
	}
	if s.figures {
		s.figureError(r, cells)
	}
	return out
}

// Paper reference: average Sbest-vs-Hbest reductions in percent for
// Figure 2 (microbenchmarks) and Figure 3 (applications), as EXPERIMENTS.md
// quotes them.
const (
	paperFig2Time, paperFig2Traffic = 18.0, 40.0
	paperFig3Time, paperFig3Traffic = 16.0, 27.0
)

// figureError normalizes the pass's cells into Figures 2 and 3 and
// records the mean distance of the average time and traffic reductions
// from the paper's, in percentage points.
func (s *sweep) figureError(r *runner, cells []spandex.Cell) {
	sp := r.tr.begin("spandex.BuildFigure", "")
	defer r.tr.end(sp)
	f2, err2 := spandex.BuildFigure("Figure 2", spandex.Figure2Workloads(), cells)
	f3, err3 := spandex.BuildFigure("Figure 3", spandex.Figure3Workloads(), cells)
	if err2 != nil || err3 != nil {
		// A cell error was already counted; a figure that cannot be built
		// from complete cells is its own failure.
		if len(cells) == len(s.workloads)*len(s.configs) {
			r.gate.check(false, "figures seed %d: %v %v", s.seed, err2, err3)
		}
		return
	}
	h2, h3 := f2.ComputeHeadline(), f3.ComputeHeadline()
	if r.acc != nil {
		r.acc.figTimeErr = (math.Abs(100*h2.AvgTime-paperFig2Time) + math.Abs(100*h3.AvgTime-paperFig3Time)) / 2
		r.acc.figTrafficErr = (math.Abs(100*avgTrafficReduction(f2)-paperFig2Traffic) +
			math.Abs(100*avgTrafficReduction(f3)-paperFig3Traffic)) / 2
	}
}

// avgTrafficReduction is Headline.AvgTraffic computed with each
// configuration's per-class traffic shares summed in class-name order.
// ComputeHeadline sums them in map order, so its last bits vary from run
// to run, and the benchmark's deterministic outputs must not.
func avgTrafficReduction(f *spandex.FigureData) float64 {
	var sum float64
	for _, wn := range f.Workloads {
		total := func(cfg string) float64 {
			shares := f.Traffic[wn][cfg]
			classes := make([]string, 0, len(shares))
			for c := range shares {
				classes = append(classes, c)
			}
			sort.Strings(classes)
			var t float64
			for _, c := range classes {
				t += shares[c]
			}
			return t
		}
		hbest, sbest := f.BestPair(wn, total)
		sum += 1 - sbest/hbest
	}
	return sum / float64(len(f.Workloads))
}

// mcheckBench explores a fixed subset of the model checker's baseline
// corpus under full reduction and holds each run to its baseline counts.
type mcheckBench struct {
	items []mcScenario
}

type mcScenario struct {
	key                 string
	sc                  mcheck.Scenario
	states, transitions int
}

type baselineFile struct {
	Runs []struct {
		Pairing     string `json:"pairing"`
		Scenario    string `json:"scenario"`
		States      int    `json:"states"`
		Transitions int    `json:"transitions"`
	} `json:"runs"`
}

func newMcheckBench(root string, sz sizes) (*mcheckBench, error) {
	raw, err := os.ReadFile(filepath.Join(root, "docs", "mcheck", "baseline.json"))
	if err != nil {
		return nil, fmt.Errorf("mcheck baseline: %w", err)
	}
	var bf baselineFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("mcheck baseline: %w", err)
	}
	pairings := map[string]mcheck.Pairing{}
	for _, p := range mcheck.Pairings() {
		pairings[p.String()] = p
	}
	b := &mcheckBench{}
	for _, it := range sz.mcheck {
		p, ok := pairings[it.pairing]
		if !ok {
			return nil, fmt.Errorf("mcheck: unknown pairing %q", it.pairing)
		}
		sc, err := mcheck.ScenarioByName(p, it.scenario)
		if err != nil {
			return nil, err
		}
		m := mcScenario{key: it.pairing + "/" + it.scenario, sc: sc, states: -1}
		for _, r := range bf.Runs {
			if r.Pairing == it.pairing && r.Scenario == it.scenario {
				m.states, m.transitions = r.States, r.Transitions
			}
		}
		if m.states < 0 {
			return nil, fmt.Errorf("mcheck: %s not in the baseline", m.key)
		}
		b.items = append(b.items, m)
	}
	return b, nil
}

// pass first times set-up, the construction of each scenario's world and
// its initial state (an exploration capped at one state), mcheckSetupReps
// times taking the median, then explores every scenario in full.
func (b *mcheckBench) pass(r *runner) passOut {
	var out passOut
	reps := make([]float64, 0, mcheckSetupReps)
	for i := 0; i < mcheckSetupReps; i++ {
		t0 := time.Now()
		for _, it := range b.items {
			sp := r.tr.begin("mcheck.Explore.setup", it.key)
			mcheck.Explore(mcheck.Config{Scenario: it.sc, MaxStates: 1})
			r.tr.end(sp)
		}
		reps = append(reps, time.Since(t0).Seconds())
	}
	out.setup = time.Duration(median(reps) * float64(time.Second))
	for _, it := range b.items {
		sp := r.tr.begin("mcheck.Explore", it.key)
		res := mcheck.Explore(mcheck.Config{Scenario: it.sc})
		r.tr.end(sp)
		switch {
		case res.Violation != nil:
			r.gate.check(false, "mcheck %s: violation: %v", it.key, res.Violation)
		case !res.Complete:
			r.gate.check(false, "mcheck %s: exploration incomplete at %d states", it.key, res.States)
		default:
			r.gate.check(res.States == it.states && res.Transitions == it.transitions,
				"mcheck %s: states %d transitions %d, baseline %d %d",
				it.key, res.States, res.Transitions, it.states, it.transitions)
		}
		r.acc.addMcheck(res)
		out.work += float64(res.States)
	}
	return out
}

// fuzzBench generates conformance cases from a seed range and checks each
// on all six configurations with per-transition checking on, on the
// default fuzz geometry and on PressureParams.
type fuzzBench struct {
	seed  uint64
	seeds []uint64
	geoms []fuzzGeom
	// seen holds each (geometry, case, config) run's first fingerprint.
	seen map[string]uint64
}

type fuzzGeom struct {
	name   string
	params *spandex.SystemParams
	tpb    float64
}

func newFuzzBench(seed uint64, cases int) *fuzzBench {
	f := &fuzzBench{seed: seed, seen: map[string]uint64{}}
	for i := 0; i < cases; i++ {
		f.seeds = append(f.seeds, seed*1_000_000+uint64(i))
	}
	fast, pressure := spandex.FastParams(), conform.PressureParams()
	f.geoms = []fuzzGeom{
		{"default", nil, float64(fast.NoCTicksPerByte())},
		{"pressure", pressure, float64(pressure.NoCTicksPerByte())},
	}
	return f
}

func (f *fuzzBench) pass(r *runner) passOut {
	var out passOut
	configs := spandex.ConfigNames()
	for _, g := range f.geoms {
		ro := conform.RunOpts{Params: g.params}
		for _, cs := range f.seeds {
			t0 := time.Now()
			sp := r.tr.begin("conform.Generate", "")
			c := conform.Generate(cs, conform.GenParams{})
			r.tr.end(sp)
			out.setup += time.Since(t0)
			item := fmt.Sprintf("fuzz %s case %d", g.name, cs)
			var outcomes []*conform.Outcome
			if r.observe {
				// One configuration at a time, so each is timed alone;
				// each outcome is held to the model by itself.
				for _, cfg := range configs {
					sp := r.tr.begin("conform.RunCase", cfg)
					o := conform.RunCase(c, cfg, ro)
					r.tr.end(sp)
					err := o.RunErr
					if err == nil {
						err = o.SelfErr()
					}
					if err == nil {
						err = o.ImageErr
					}
					r.gate.check(err == nil, "%s seed %d on %s: %v", item, f.seed, cfg, err)
					outcomes = append(outcomes, o)
				}
			} else {
				sp := r.tr.begin("conform.CheckCase", "")
				rep := conform.CheckCase(c, configs, ro)
				r.tr.end(sp)
				r.gate.check(!rep.Failed(), "%s seed %d: %v", item, f.seed, rep.Err())
				outcomes = rep.Outcomes
			}
			for _, o := range outcomes {
				if o.RunErr != nil {
					continue
				}
				key := item + "/" + o.Config
				fp := o.Res.Fingerprint()
				if first, ok := f.seen[key]; ok {
					r.gate.check(fp == first, "%s seed %d: fingerprint %#016x, first pass %#016x", key, f.seed, fp, first)
				} else {
					f.seen[key] = fp
				}
				r.acc.add(o.Res, g.tpb)
			}
			out.work += float64(len(configs))
		}
	}
	return out
}

// writePins records the seed-42 summaries of every headline and scale64
// cell, the reference the correctness gate holds later runs to.
func writePins(path string) error {
	var sums []spandex.RunSummary
	for _, name := range []string{"headline", "scale64"} {
		w, err := newWorkload(name, pinSeed, ".", fullSizes)
		if err != nil {
			return err
		}
		s := w.(*sweep)
		g := &gate{}
		r := &runner{seed: pinSeed, gate: g}
		for _, wl := range s.workloads {
			for _, cfg := range s.configs {
				res, _, err := s.cell(r, wl, cfg)
				if err != nil {
					return fmt.Errorf("%s/%s: %w", wl.Meta().Name, cfg, err)
				}
				sums = append(sums, spandex.Summarize(res, pinSeed))
			}
		}
	}
	var buf bytes.Buffer
	if err := spandex.WriteSummaryJSONL(&buf, sums...); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
