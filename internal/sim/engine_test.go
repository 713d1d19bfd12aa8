package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	e := New()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %d, want 30", e.Now())
	}
}

func TestSameTickFIFO(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-tick events reordered: order[%d] = %d", i, v)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New()
	var hits []Time
	e.Schedule(10, func() {
		hits = append(hits, e.Now())
		e.Schedule(5, func() { hits = append(hits, e.Now()) })
		e.Schedule(0, func() { hits = append(hits, e.Now()) })
	})
	e.Run()
	want := []Time{10, 10, 15}
	if len(hits) != len(want) {
		t.Fatalf("hits = %v", hits)
	}
	for i := range want {
		if hits[i] != want[i] {
			t.Fatalf("hits = %v, want %v", hits, want)
		}
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	e := New()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.ScheduleAt(5, func() {})
	})
	e.Run()
}

func TestRunUntil(t *testing.T) {
	e := New()
	fired := 0
	e.Schedule(10, func() { fired++ })
	e.Schedule(20, func() { fired++ })
	e.Schedule(30, func() { fired++ })
	if e.RunUntil(20) {
		t.Fatal("RunUntil reported drained with events pending")
	}
	if fired != 2 || e.Now() != 20 {
		t.Fatalf("fired=%d now=%d", fired, e.Now())
	}
	if !e.RunUntil(1 << 40) {
		t.Fatal("RunUntil should drain")
	}
	if fired != 3 {
		t.Fatalf("fired=%d", fired)
	}
}

// TestHeapProperty drives the engine with arbitrary delays and checks
// events always fire in nondecreasing time order.
func TestHeapProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := New()
		var last Time
		ok := true
		for _, d := range delays {
			e.Schedule(Time(d), func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.Run()
		return ok && e.Fired() == uint64(len(delays))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClockConversions(t *testing.T) {
	if CPUCycles(4) != 2000 {
		t.Fatalf("CPUCycles(4) = %d", CPUCycles(4))
	}
	if GPUCycles(2) != 2858 {
		t.Fatalf("GPUCycles(2) = %d", GPUCycles(2))
	}
}

// TestZeroDelaySelfReschedule: an event that re-arms itself with zero
// delay fires again at the same tick — behind events already queued for
// that tick, so zero-delay loops cannot starve their peers — and the
// engine still advances to later ticks afterwards.
func TestZeroDelaySelfReschedule(t *testing.T) {
	e := New()
	var log []int
	hops := 0
	var self func()
	self = func() {
		log = append(log, hops)
		hops++
		if hops < 5 {
			e.Schedule(0, self)
		}
	}
	e.Schedule(10, self)
	e.Schedule(10, func() { log = append(log, 100) })
	reached := false
	e.Schedule(11, func() { reached = true })
	e.Run()
	want := []int{0, 100, 1, 2, 3, 4}
	if len(log) != len(want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
	if !reached || e.Now() != 11 {
		t.Fatalf("reached=%v now=%d", reached, e.Now())
	}
}

// TestBucketWrap exercises the overflow path: targets past the current
// wheel window [base, base+wheelTicks) go to the overflow heap and drain
// back into the wheel as the window turns over, including a chain that
// always jumps one full window ahead of itself.
func TestBucketWrap(t *testing.T) {
	e := New()
	var fired []Time
	rec := func() { fired = append(fired, e.Now()) }
	for _, at := range []Time{3, wheelTicks - 1, wheelTicks, wheelTicks + 1,
		3*wheelTicks + 7, 10*wheelTicks + 123} {
		e.ScheduleAt(at, rec)
	}
	jumps := 0
	var hop func()
	hop = func() {
		fired = append(fired, e.Now())
		if jumps < 4 {
			jumps++
			e.Schedule(wheelTicks, hop)
		}
	}
	e.ScheduleAt(5, hop)
	e.Run()
	want := []Time{3, 5, wheelTicks - 1, wheelTicks, wheelTicks + 1,
		wheelTicks + 5, 2*wheelTicks + 5, 3*wheelTicks + 5, 3*wheelTicks + 7,
		4*wheelTicks + 5, 10*wheelTicks + 123}
	if len(fired) != len(want) {
		t.Fatalf("fired %d events, want %d: %v", len(fired), len(want), fired)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired[%d] = %d, want %d", i, fired[i], want[i])
		}
	}
	if e.Fired() != uint64(len(want)) {
		t.Fatalf("Fired = %d", e.Fired())
	}
}

// TestCalendarHeapCrossCheck drives the calendar queue against a plain
// reference ordered by (time, schedule order), with randomized targets
// spanning several wheel windows and callbacks that schedule follow-up
// work mid-run — so wheel inserts, overflow inserts, and overflow→wheel
// migration at turnover all interleave.
func TestCalendarHeapCrossCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	e := New()
	type ev struct {
		at  Time
		seq int
	}
	var model, got []ev
	seq := 0
	var schedule func(at Time)
	schedule = func(at Time) {
		id := seq
		seq++
		model = append(model, ev{at, id})
		e.ScheduleAt(at, func() {
			got = append(got, ev{e.Now(), id})
			if seq < 3000 && rng.Intn(3) == 0 {
				schedule(e.Now() + Time(rng.Intn(4*wheelTicks)))
			}
		})
	}
	for i := 0; i < 1000; i++ {
		schedule(Time(rng.Intn(6 * wheelTicks)))
	}
	e.Run()
	sort.SliceStable(model, func(i, j int) bool { return model[i].at < model[j].at })
	if len(got) != len(model) {
		t.Fatalf("fired %d events, want %d", len(got), len(model))
	}
	for i := range model {
		if got[i] != model[i] {
			t.Fatalf("event %d: got (at=%d seq=%d), want (at=%d seq=%d)",
				i, got[i].at, got[i].seq, model[i].at, model[i].seq)
		}
	}
}

// TestReleasedWheelReuse checks that an engine starting on a wheel
// released mid-run, with events still queued in its buckets and bitmap,
// fires a schedule exactly as a fresh engine does.
func TestReleasedWheelReuse(t *testing.T) {
	run := func(e *Engine) []Time {
		var got []Time
		for _, at := range []Time{7, 3, wheelTicks + 5, 3, 2*wheelTicks + 1, 64, 65} {
			e.ScheduleAt(at, func() { got = append(got, e.Now()) })
		}
		e.Run()
		return got
	}
	dirty := New()
	for i := 0; i < 200; i++ {
		dirty.Schedule(Time(i*37%wheelTicks), func() {})
	}
	dirty.RunUntil(100)
	buckets := &dirty.buckets[0]
	dirty.Release()

	reused := New()
	got := run(reused)
	if &reused.buckets[0] != buckets {
		t.Skip("the pool dropped the released wheel")
	}
	want := run(New())
	if len(got) != len(want) {
		t.Fatalf("reused engine fired %v, fresh engine %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reused engine fired %v, fresh engine %v", got, want)
		}
	}
}

// TestReleaseLeavesWheelClean checks that Release empties every bucket
// and bitmap word of a wheel whose engine stopped with events still
// queued in the wheel and in the overflow heap, so the next engine can
// start on it with no reset pass.
func TestReleaseLeavesWheelClean(t *testing.T) {
	e := New()
	for i := 0; i < 500; i++ {
		e.Schedule(Time(i*131%(3*wheelTicks)), func() {})
	}
	e.RunUntil(wheelTicks / 2)
	if e.count == 0 || len(e.overflow) == 0 {
		t.Fatalf("setup: %d wheel and %d overflow events pending, want both > 0", e.count, len(e.overflow))
	}
	w := wheel{buckets: e.buckets, bits: e.bits, summary: e.summary}
	e.Release()
	if e.buckets != nil {
		t.Fatal("released engine still holds its wheel")
	}
	for i, b := range w.buckets {
		if b.head != nilNode {
			t.Fatalf("bucket %d still heads node %d", i, b.head)
		}
	}
	for i, word := range w.bits {
		if word != 0 {
			t.Fatalf("occupancy word %d = %#x", i, word)
		}
	}
	for i, word := range w.summary {
		if word != 0 {
			t.Fatalf("summary word %d = %#x", i, word)
		}
	}
	New().Release() // an engine that never scheduled has no wheel to give
}
