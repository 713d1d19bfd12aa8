// Protocoltrace reproduces the flavor of the paper's Figure 1 walkthroughs
// (1a-1d): it builds a Spandex system, runs a tiny three-device program
// whose accesses exercise word-granularity ownership transfer, forwarding,
// and revocation, and prints every coherence message touching the target
// line in delivery order.
package main

import (
	"fmt"
	"log"

	"spandex"
)

// scenario is a miniature workload: an "accelerator" thread (CPU core 0,
// standing in for Fig. 1's custom accelerator) takes word ownership, a GPU
// warp writes through disparate words of the same line, then performs an
// atomic on an owned word (Fig. 1b), and finally reads the whole line
// (Fig. 1c).
type scenario struct{ base spandex.Addr }

func (s *scenario) Meta() spandex.Meta {
	return spandex.Meta{Name: "fig1", Suite: "Trace",
		Pattern: "Figure 1 message walkthroughs"}
}

func (s *scenario) Build(m spandex.Machine, seed uint64) *spandex.Program {
	lay := spandex.NewLayout()
	line := lay.Words(16)
	s.base = line
	flag := lay.Words(16)

	p := &spandex.Program{}
	// Accelerator: own words 0-1 (Fig. 1a step 1-2), then wait.
	p.CPU = append(p.CPU, spandex.GoThread(func(t *spandex.Thread) {
		t.Store(spandex.WordAddr(line, 0), 11)
		t.Store(spandex.WordAddr(line, 1), 22)
		t.Fence(false, true) // drain: ReqO goes out
		t.AtomicStore(flag, 1, true)
		t.SpinUntilGE(flag, 2)
	}))
	for i := 1; i < m.CPUThreads; i++ {
		p.CPU = append(p.CPU, nil)
	}
	// GPU warp: write-through words 2-3 (Fig. 1a steps 3-4), atomic on the
	// accelerator-owned word 0 (Fig. 1b), then a full-line read (Fig. 1c).
	warp := spandex.GoThread(func(t *spandex.Thread) {
		t.SpinUntilGE(flag, 1)
		t.Store(spandex.WordAddr(line, 2), 33)
		t.Store(spandex.WordAddr(line, 3), 44)
		t.Fence(false, true)                                     // drain: ReqWT goes out
		t.FetchAdd(spandex.WordAddr(line, 0), 100, false, false) // Fig. 1b
		v := t.Load(spandex.WordAddr(line, 1))                   // Fig. 1c (fill)
		_ = v
		t.AtomicStore(flag, 2, true)
	})
	p.GPU = append(p.GPU, []spandex.OpStream{warp})
	return p
}

func main() {
	sc := &scenario{}
	var lines []string
	// The sink runs during Run, after Build has set sc.base.
	trace := spandex.TraceFuncSink(func(ev spandex.TraceEvent) {
		if ev.Kind == spandex.TraceMsgDeliver && ev.Msg.Line == sc.base.Line() {
			lines = append(lines, fmt.Sprintf("%10d ps  %s", ev.At, ev.Msg))
		}
	})
	sys, err := spandex.NewSystem(spandex.Options{ConfigName: "SDG", TraceSink: trace})
	if err != nil {
		log.Fatal(err)
	}
	prog := sc.Build(sys.Machine(), 0)
	defer prog.Close()

	if err := sys.Attach(prog); err != nil {
		log.Fatal(err)
	}
	if _, err := sys.Run(0); err != nil {
		log.Fatal(err)
	}

	fmt.Println("Coherence messages for the contended line (cf. paper Figure 1):")
	fmt.Println("  node ids: 0..7 = CPU cores (0 is the 'accelerator'),")
	fmt.Println("            8..23 = GPU CUs, 24 = Spandex LLC, 25 = memory")
	for _, l := range lines {
		fmt.Println(l)
	}
}
