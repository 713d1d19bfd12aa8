package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// span is one timed call into the program, made from the benchmark side
// of a layer boundary. Parent indexes the enclosing span (-1 for a root).
type span struct {
	Name   string        `json:"name"`
	Tag    string        `json:"tag,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
}

// tracer keeps spans in memory. The benchmark loop is single-threaded,
// so the innermost open span is always the parent of the next one. A nil
// tracer records nothing.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name, tag string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Tag: tag, Start: time.Since(t.t0), Parent: parent})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.t0)
	t.open = t.open[:len(t.open)-1]
}

// spanTotal is one span name's aggregate: calls, summed duration, and
// self time (duration minus the part covered by child spans).
type spanTotal struct {
	Name        string
	Calls       int
	Total, Self time.Duration
}

func (t *tracer) totals() []spanTotal {
	if t == nil {
		return nil
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	by := map[string]*spanTotal{}
	for i, s := range t.spans {
		a := by[s.Name]
		if a == nil {
			a = &spanTotal{Name: s.Name}
			by[s.Name] = a
		}
		a.Calls++
		a.Total += s.End - s.Start
		a.Self += self[i]
	}
	out := make([]spanTotal, 0, len(by))
	for _, a := range by {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// sum adds the durations of spans with the given name whose tag passes
// keep (nil keeps all).
func (t *tracer) sum(name string, keep func(tag string) bool) time.Duration {
	if t == nil {
		return 0
	}
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name && (keep == nil || keep(s.Tag)) {
			d += s.End - s.Start
		}
	}
	return d
}

// gate counts checked items and keeps a line for each failure: the item,
// the seed and the first field that differed.
type gate struct {
	attempted, failed int
	failures          []string
}

func (g *gate) check(ok bool, format string, args ...any) {
	g.attempted++
	if !ok {
		g.failed++
		g.failures = append(g.failures, fmt.Sprintf(format, args...))
	}
}

// runner carries what a pass needs besides the workload's own inputs.
type runner struct {
	seed uint64
	tr   *tracer // nil outside the traced run's profiled phase
	// observe switches on the simulator's own observability products
	// (latency attribution, occupancy, metrics engine) for the pass.
	observe bool
	gate    *gate
	// acc, when non-nil, accumulates the pass's simulated counters.
	acc *simAcc
}

// passOut is what a workload reports about one pass; the loop adds wall
// time and allocation.
type passOut struct {
	setup time.Duration
	work  float64
}

type passStat struct {
	wall, setup time.Duration
	work        float64
	alloc       uint64
}

// timedPass runs one pass and measures it from outside.
func timedPass(w benchWorkload, r *runner) passStat {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	out := w.pass(r)
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return passStat{wall: wall, setup: out.setup, work: out.work, alloc: m1.TotalAlloc - m0.TotalAlloc}
}

// passes runs passes until the next one would end after budget, running
// at least one. mk builds each pass's runner.
func passes(w benchWorkload, budget time.Duration, mk func(i int) *runner, log func(i int, s passStat)) []passStat {
	var out []passStat
	t0 := time.Now()
	for i := 0; ; i++ {
		s := timedPass(w, mk(i))
		out = append(out, s)
		if log != nil {
			log(i, s)
		}
		if time.Since(t0)+s.wall > budget {
			return out
		}
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles by the same rule as
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method), which
// the benchmark's steadiness criterion is defined with.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// peakRSSMB reads the process's peak resident set from getrusage.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}
