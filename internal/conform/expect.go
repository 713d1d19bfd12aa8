package conform

import "spandex"

// LogRef locates one observation-log entry back in the case, so log
// divergences report as "thread 2 load #5 (phase 1, chunk 3 word 2)"
// rather than a bare index.
type LogRef struct {
	Phase, OpIdx int
	Op           Op
}

// Expectation is the model-predicted observable behaviour of a case: the
// exact value every plain load must observe, and the exact final value of
// every allocated word. It is computed from the case alone — no simulation
// — which is what lets the oracle separate protocol bugs (configurations
// diverge from each other) from model bugs (all configurations agree with
// each other but not with the model).
type Expectation struct {
	// Logs[t] is thread t's expected observation log: one value per OpLoad
	// in program order.
	Logs [][]uint32
	// Refs[t][i] locates Logs[t][i]'s load in the case.
	Refs [][]LogRef
	// Image is the expected final value of every layout word, in layout
	// word order.
	Image []uint32
	// inits is the case's initial memory, computed once here and seeded
	// read-only into every run's program.
	inits []spandex.WordInit
}

// Expect computes the model prediction. The model exploits the discipline:
// within a phase all written words are disjoint across threads, and any
// value a thread loads was either written before the phase (ordered by the
// barrier) or by the thread itself earlier in the phase. Replaying threads
// one at a time per phase against a single memory model therefore yields
// exactly the values the real concurrent execution must observe.
// Fetch-adds are commutative, so their summed effect on the model is
// order-independent even though their return values (never logged) are not.
func (c *Case) Expect(l *caseLayout) *Expectation {
	e := &Expectation{
		Logs:  make([][]uint32, len(c.Threads)),
		Refs:  make([][]LogRef, len(c.Threads)),
		inits: c.inits(l),
	}
	mem := make(map[spandex.Addr]uint32)
	for _, init := range e.inits {
		mem[init.Addr] = init.Val
	}
	for p := 0; p < c.Phases; p++ {
		for t, th := range c.Threads {
			for i, op := range th.Ops[p] {
				switch op.Kind {
				case OpLoad:
					a := l.addrOf(c, t, op)
					e.Logs[t] = append(e.Logs[t], mem[a])
					e.Refs[t] = append(e.Refs[t], LogRef{Phase: p, OpIdx: i, Op: op})
				case OpStore:
					mem[l.addrOf(c, t, op)] = op.Val
				case OpFetchAdd:
					mem[l.addrOf(c, t, op)] += op.Val
				}
			}
		}
	}
	// The sense-reversing barrier leaves its counter reset to zero and its
	// generation at the number of completed waits per thread (one per
	// phase).
	mem[l.barrier.Gen] = uint32(c.Phases)
	e.Image = make([]uint32, len(l.words))
	for i, a := range l.words {
		e.Image[i] = mem[a]
	}
	return e
}
