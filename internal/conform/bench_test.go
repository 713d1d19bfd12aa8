package conform

import (
	"testing"

	"spandex"
)

// BenchmarkCheckCase is the conformance oracle's layer benchmark: one
// generated case per iteration (seeds 0-7 in turn) checked on all six
// configurations with per-transition checking on, on the default fuzz
// geometry and on PressureParams. Six short-lived systems per op, so
// construction and allocation weigh as much as simulation.
func BenchmarkCheckCase(b *testing.B) {
	cases := make([]*Case, 8)
	for i := range cases {
		cases[i] = Generate(uint64(i), GenParams{})
	}
	for _, g := range []struct {
		name   string
		params *spandex.SystemParams
	}{{"default", nil}, {"pressure", PressureParams()}} {
		b.Run(g.name, func(b *testing.B) {
			ro := RunOpts{Params: g.params}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if rep := CheckCase(cases[i%len(cases)], nil, ro); rep.Failed() {
					b.Fatal(rep.Err())
				}
			}
		})
	}
}
