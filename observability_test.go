package spandex

import (
	"bytes"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"

	"spandex/internal/obs"
)

// obsCell is one (workload, config) cell of the headline matrix.
type obsCell struct{ workload, config string }

// obsMatrix returns the full headline matrix: every Figure 2 and Figure 3
// workload across every Table V configuration (9×6). In -short mode it
// shrinks to one microbenchmark and one application across all configs.
func obsMatrix() []obsCell {
	workloads := append(append([]string{}, Figure2Workloads()...), Figure3Workloads()...)
	if testing.Short() {
		workloads = []string{"indirection", "tqh"}
	}
	var cells []obsCell
	for _, w := range workloads {
		for _, c := range ConfigNames() {
			cells = append(cells, obsCell{w, c})
		}
	}
	return cells
}

// runObsCell runs one cell. When traced, every observability knob is on —
// the latency phase machine, occupancy sampling, a JSONL sink streaming to
// io.Discard so the full event-serialization path executes, and every
// metrics collector.
func runObsCell(cl obsCell, traced bool) (Result, error) {
	w, err := WorkloadByName(cl.workload)
	if err != nil {
		return Result{}, err
	}
	p := FastParams()
	opt := Options{ConfigName: cl.config, Params: &p, Seed: 7}
	if traced {
		opt.TraceLatency = true
		opt.TraceOccupancy = true
		opt.TraceSink = NewJSONLTraceSink(io.Discard)
		opt.Metrics = AllMetrics()
	}
	return Run(w, opt)
}

// runObsMatrix runs every cell concurrently (one goroutine per cell,
// bounded by GOMAXPROCS) and returns the results in cell order.
func runObsMatrix(t *testing.T, cells []obsCell, traced bool) []Result {
	t.Helper()
	results := make([]Result, len(cells))
	errs := make([]error, len(cells))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, cl := range cells {
		wg.Add(1)
		go func(i int, cl obsCell) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i], errs[i] = runObsCell(cl, traced)
		}(i, cl)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s/%s: %v", cells[i].workload, cells[i].config, err)
		}
	}
	return results
}

// TestObserverNeutrality is the acceptance gate for the observability
// layer: enabling every Trace* knob must leave Result.Fingerprint
// bit-identical to a bare run, for every cell of the full headline matrix,
// with traced cells executed both under goroutine contention and serially.
// Tracing observes; it never perturbs.
func TestObserverNeutrality(t *testing.T) {
	cells := obsMatrix()
	bare := runObsMatrix(t, cells, false)
	traced := runObsMatrix(t, cells, true)
	for i, cl := range cells {
		if bare[i].Fingerprint() != traced[i].Fingerprint() {
			t.Errorf("%s/%s: traced fingerprint %#x != bare %#x — tracing perturbed the run",
				cl.workload, cl.config, traced[i].Fingerprint(), bare[i].Fingerprint())
		}
		if traced[i].Latency == nil {
			t.Errorf("%s/%s: traced run has no latency report", cl.workload, cl.config)
		} else if traced[i].Latency.Requests == 0 {
			t.Errorf("%s/%s: latency report tracked zero requests", cl.workload, cl.config)
		}
		if bare[i].Latency != nil {
			t.Errorf("%s/%s: bare run unexpectedly produced a latency report", cl.workload, cl.config)
		}
		if traced[i].Metrics == nil {
			t.Errorf("%s/%s: traced run has no metrics report", cl.workload, cl.config)
		} else if len(traced[i].Metrics.Links) == 0 {
			t.Errorf("%s/%s: metrics report saw no link traffic", cl.workload, cl.config)
		}
		if bare[i].Metrics != nil {
			t.Errorf("%s/%s: bare run unexpectedly produced a metrics report", cl.workload, cl.config)
		}
	}
	// Serial spot-check: parallel execution of the traced runs above must
	// not have influenced them either — re-running a sample of cells alone
	// in this goroutine yields the same fingerprints.
	sample := []int{0, len(cells) / 2, len(cells) - 1}
	for _, i := range sample {
		res, err := runObsCell(cells[i], true)
		if err != nil {
			t.Fatal(err)
		}
		if res.Fingerprint() != traced[i].Fingerprint() {
			t.Errorf("%s/%s: serial traced fingerprint differs from parallel traced run",
				cells[i].workload, cells[i].config)
		}
	}
}

// TestPhaseReconciliation checks the central latency-attribution
// invariant: for every operation class, the per-phase breakdown sums
// exactly to the end-to-end latency total — the phase machine closes one
// interval per event, so no tick is dropped or double-counted — and no
// request is left unfinished at quiescence.
func TestPhaseReconciliation(t *testing.T) {
	for _, wname := range []string{"indirection", "tqh"} {
		for _, cname := range ConfigNames() {
			t.Run(wname+"/"+cname, func(t *testing.T) {
				res, err := runObsCell(obsCell{wname, cname}, true)
				if err != nil {
					t.Fatal(err)
				}
				r := res.Latency
				if r == nil {
					t.Fatal("no latency report")
				}
				if r.Unfinished != 0 {
					t.Errorf("%d requests unfinished at quiescence", r.Unfinished)
				}
				var total uint64
				for _, c := range r.Classes {
					if got, want := c.PhaseSum(), c.TotalTicks; got != want {
						t.Errorf("class %s: phase sum %d != total %d (off by %d)",
							c.Class, got, want, int64(got)-int64(want))
					}
					if c.Count == 0 {
						t.Errorf("class %s present with zero count", c.Class)
					}
					if c.Max < c.P99 || c.P99 < c.P50 {
						t.Errorf("class %s: quantiles not monotonic: p50=%d p99=%d max=%d",
							c.Class, c.P50, c.P99, c.Max)
					}
					total += c.Count
				}
				if total != r.Requests {
					t.Errorf("class counts sum to %d, report says %d requests", total, r.Requests)
				}
			})
		}
	}
}

// TestChromeExportValidates runs traced cells with the Chrome trace-event
// sink and requires the exported file to pass the same well-formedness
// validation CI applies: valid JSON, every async slice closed, ends after
// begins. It also checks the node-name metadata made it in.
func TestChromeExportValidates(t *testing.T) {
	for _, cl := range []obsCell{{"indirection", "SDD"}, {"tqh", "HMG"}} {
		t.Run(cl.workload+"/"+cl.config, func(t *testing.T) {
			w, err := WorkloadByName(cl.workload)
			if err != nil {
				t.Fatal(err)
			}
			p := FastParams()
			sink := NewChromeTraceSink()
			_, err = Run(w, Options{ConfigName: cl.config, Params: &p, Seed: 7,
				TraceLatency: true, TraceOccupancy: true, TraceSink: sink})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := sink.Close(&buf); err != nil {
				t.Fatal(err)
			}
			if err := ValidateChromeTrace(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatalf("exported trace fails validation: %v", err)
			}
			for _, label := range []string{"process_name", "cpu0"} {
				if !strings.Contains(buf.String(), label) {
					t.Errorf("exported trace missing %q", label)
				}
			}
		})
	}
}

// TestTraceOccupancyMetrics checks the occupancy sampler: with only
// TraceOccupancy set, Result.Metrics.Occupancy holds one series per
// (node, resource) that emitted occupancy events, and each series'
// sample count and peak match the event stream exactly.
func TestTraceOccupancyMetrics(t *testing.T) {
	type key struct {
		node int
		res  string
	}
	type tally struct{ count, peak uint64 }
	want := map[key]*tally{}
	count := TraceFuncSink(func(ev TraceEvent) {
		if ev.Kind != obs.EvOccupancy {
			return
		}
		k := key{int(ev.Node), ev.Res}
		if want[k] == nil {
			want[k] = &tally{}
		}
		want[k].count++
		want[k].peak = max(want[k].peak, ev.Arg)
	})
	w, err := WorkloadByName("indirection")
	if err != nil {
		t.Fatal(err)
	}
	p := FastParams()
	res, err := Run(w, Options{ConfigName: "SDD", Params: &p, Seed: 7,
		TraceOccupancy: true, TraceSink: count})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("no occupancy events emitted")
	}
	if res.Metrics == nil {
		t.Fatal("TraceOccupancy produced no metrics report")
	}
	got := map[key]bool{}
	for _, o := range res.Metrics.Occupancy {
		k := key{o.Node, o.Res}
		got[k] = true
		c, peak := o.Series.Samples()
		wt := want[k]
		if wt == nil {
			t.Errorf("series %v has no occupancy events", k)
			continue
		}
		if c != wt.count || peak != wt.peak {
			t.Errorf("series %v: %d samples, peak %d; events: %d, peak %d", k, c, peak, wt.count, wt.peak)
		}
	}
	for k := range want {
		if !got[k] {
			t.Errorf("no occupancy series for %v", k)
		}
	}
	if len(res.Metrics.Links) != 0 || res.Metrics.DRAM != nil {
		t.Error("TraceOccupancy enabled collectors beyond the LLC's")
	}
	mo := MetricsOptions{Links: true}
	if _, err := NewSystem(Options{ConfigName: "SDD", TraceOccupancy: true, Metrics: &mo}); err != nil {
		t.Fatal(err)
	}
	if mo != (MetricsOptions{Links: true}) {
		t.Errorf("NewSystem mutated the caller's MetricsOptions: %+v", mo)
	}
}

// TestRenderLatency smoke-checks the report renderer on a traced and an
// untraced result.
func TestRenderLatency(t *testing.T) {
	res, err := runObsCell(obsCell{"indirection", "SDD"}, true)
	if err != nil {
		t.Fatal(err)
	}
	out := RenderLatency(res)
	for _, frag := range []string{"Request latency", "indirection", "SDD", "load", "Phase breakdown", "DRAM"} {
		if !strings.Contains(out, frag) {
			t.Errorf("rendered latency report missing %q:\n%s", frag, out)
		}
	}
	bare, err := runObsCell(obsCell{"indirection", "SDD"}, false)
	if err != nil {
		t.Fatal(err)
	}
	if out := RenderLatency(bare); !strings.Contains(out, "no data") {
		t.Errorf("untraced render should point at Options.TraceLatency:\n%s", out)
	}
}

// TestJSONLExportShape runs one traced cell through the JSONL sink and
// checks the stream is one well-formed JSON object per line with the
// documented field names.
func TestJSONLExportShape(t *testing.T) {
	w, err := WorkloadByName("indirection")
	if err != nil {
		t.Fatal(err)
	}
	p := FastParams()
	var buf bytes.Buffer
	sink := NewJSONLTraceSink(&buf)
	if _, err := Run(w, Options{ConfigName: "SDD", Params: &p, Seed: 7, TraceSink: sink}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 100 {
		t.Fatalf("suspiciously few events: %d", len(lines))
	}
	var sawIssue, sawDeliver bool
	for i, ln := range lines {
		if !strings.HasPrefix(ln, `{"at":`) {
			t.Fatalf("line %d does not open with the at field: %s", i, ln)
		}
		if strings.Contains(ln, `"ev":"OpIssue"`) {
			sawIssue = true
		}
		if strings.Contains(ln, `"ev":"MsgDeliver"`) {
			sawDeliver = true
		}
	}
	if !sawIssue || !sawDeliver {
		t.Fatalf("stream missing event kinds: issue=%v deliver=%v", sawIssue, sawDeliver)
	}
}

// benchTracing times one headline cell with the observability layer in a
// given state. The Disabled/Enabled pair is what the CI overhead guard
// reports: disabled must stay within noise of the pre-instrumentation
// baseline (the instrumented sites reduce to nil checks), enabled shows
// the cost a user opts into.
func benchTracing(b *testing.B, traced bool) {
	w, err := WorkloadByName("indirection")
	if err != nil {
		b.Fatal(err)
	}
	p := FastParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		opt := Options{ConfigName: "SDD", Params: &p, Seed: 7}
		if traced {
			opt.TraceLatency = true
			opt.TraceOccupancy = true
			opt.TraceSink = NewJSONLTraceSink(io.Discard)
		}
		if _, err := Run(w, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunTracingDisabled(b *testing.B) { benchTracing(b, false) }
func BenchmarkRunTracingEnabled(b *testing.B)  { benchTracing(b, true) }

// benchMetrics times the same cell with only the metrics engine toggled
// (no latency machine, no sink), isolating its cost: the disabled case is
// the near-zero-overhead guarantee (nil-check sites only), the enabled
// case is what a metrics run opts into.
func benchMetrics(b *testing.B, on bool) {
	w, err := WorkloadByName("indirection")
	if err != nil {
		b.Fatal(err)
	}
	p := FastParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		opt := Options{ConfigName: "SDD", Params: &p, Seed: 7}
		if on {
			opt.Metrics = AllMetrics()
		}
		if _, err := Run(w, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunMetricsDisabled(b *testing.B) { benchMetrics(b, false) }
func BenchmarkRunMetricsEnabled(b *testing.B)  { benchMetrics(b, true) }
