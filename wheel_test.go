package spandex_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"spandex"
	"spandex/internal/conform"
	"spandex/internal/sim"
)

// TestWheelRecyclingNeutral runs a conformance case and a headline cell
// three ways and requires the same Result.Fingerprint each time: on a
// fresh calendar wheel, on a wheel recycled from a drained engine, and on
// one recycled from an engine stopped with events still queued in both
// its wheel and its overflow heap. With one P and the collector off, the
// wheel the test's engine releases is the one the run's engine takes
// next; two collections empty the pool for the fresh run.
func TestWheelRecyclingNeutral(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	c := conform.Generate(7, conform.GenParams{})
	cells := []struct {
		name string
		run  func() (spandex.Result, error)
	}{
		{"conform/" + c.Name + "/SMG", func() (spandex.Result, error) {
			o := conform.RunCase(c, "SMG", conform.RunOpts{Params: conform.PressureParams()})
			return o.Res, o.RunErr
		}},
		{"headline/trns/SMD", func() (spandex.Result, error) {
			w, err := spandex.WorkloadByName("trns")
			if err != nil {
				return spandex.Result{}, err
			}
			return spandex.Run(w, spandex.Options{ConfigName: "SMD", Seed: 42, Validate: true})
		}},
	}
	wheels := []struct {
		name    string
		prepare func(t *testing.T)
	}{
		{"fresh", func(*testing.T) { runtime.GC(); runtime.GC() }},
		{"drained", func(*testing.T) {
			e := sim.New()
			for i := 0; i < 100; i++ {
				e.Schedule(sim.Time(i*997), func() {})
			}
			e.Run()
			e.Release()
		}},
		{"aborted", func(t *testing.T) {
			e := sim.New()
			for i := 0; i < 100; i++ {
				e.Schedule(sim.Time(i*13), func() {})    // in the wheel window
				e.Schedule(sim.Time(1<<22+i), func() {}) // beyond it
			}
			if e.RunUntil(600) || e.Pending() <= 100 {
				t.Fatalf("setup: %d events pending, want wheel and overflow events left", e.Pending())
			}
			e.Release()
		}},
	}
	for _, cell := range cells {
		var want uint64
		for i, wh := range wheels {
			wh.prepare(t)
			res, err := cell.run()
			if err != nil {
				t.Fatalf("%s, %s wheel: %v", cell.name, wh.name, err)
			}
			if fp := res.Fingerprint(); i == 0 {
				want = fp
			} else if fp != want {
				t.Errorf("%s: fingerprint %#016x on the %s wheel, %#016x on the fresh one", cell.name, fp, wh.name, want)
			}
		}
	}
}
