package conform

import (
	"bytes"
	"strings"
	"testing"
)

// tinyCase builds a small hand-written case: two threads, two phases, one
// chunk that migrates from thread 0 to thread 1 across the barrier.
func tinyCase() *Case {
	return &Case{
		Name:         "tiny",
		Phases:       2,
		PrivateWords: 2,
		ROWords:      2,
		Chunks:       1,
		ChunkWords:   2,
		AtomicWords:  1,
		Owner:        [][]int{{0}, {1}},
		Threads: []ThreadCase{
			{Ops: [][]Op{
				{
					{Kind: OpStore, Region: RegChunk, Chunk: 0, Word: 0, Val: 0x1111},
					{Kind: OpStore, Region: RegChunk, Chunk: 0, Word: 1, Val: 0x2222},
					{Kind: OpLoad, Region: RegChunk, Chunk: 0, Word: 0},
					{Kind: OpFetchAdd, Region: RegAtomic, Word: 0, Val: 5},
				},
				{
					{Kind: OpLoad, Region: RegRO, Word: 1},
					{Kind: OpStore, Region: RegPrivate, Word: 0, Val: 0x3333},
					{Kind: OpLoad, Region: RegPrivate, Word: 0},
				},
			}},
			{OnGPU: true, Ops: [][]Op{
				{
					{Kind: OpLoad, Region: RegRO, Word: 0},
					{Kind: OpFetchAdd, Region: RegAtomic, Word: 0, Val: 7},
				},
				{
					// After the barrier this thread owns the chunk: it must
					// see thread 0's phase-0 stores, then overwrite them.
					{Kind: OpLoad, Region: RegChunk, Chunk: 0, Word: 0},
					{Kind: OpLoad, Region: RegChunk, Chunk: 0, Word: 1},
					{Kind: OpStore, Region: RegChunk, Chunk: 0, Word: 0, Val: 0x4444},
				},
			}},
		},
	}
}

func TestTinyCaseExpectation(t *testing.T) {
	c := tinyCase()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	l := c.layout()
	e := c.Expect(l)

	// Thread 0: chunk load sees its own store, private load its own store,
	// ro load the seeded value.
	want0 := []uint32{0x1111, initVal('R', 0, 1), 0x3333}
	if len(e.Logs[0]) != len(want0) {
		t.Fatalf("thread 0 log: %v, want %v", e.Logs[0], want0)
	}
	for i, w := range want0 {
		if e.Logs[0][i] != w {
			t.Errorf("thread 0 log[%d] = %#x, want %#x", i, e.Logs[0][i], w)
		}
	}
	// Thread 1: ro seed, then thread 0's phase-0 chunk stores.
	want1 := []uint32{initVal('R', 0, 0), 0x1111, 0x2222}
	for i, w := range want1 {
		if e.Logs[1][i] != w {
			t.Errorf("thread 1 log[%d] = %#x, want %#x", i, e.Logs[1][i], w)
		}
	}

	// Final image: chunk word 0 holds thread 1's overwrite, word 1 thread
	// 0's store; the atomic word sums both fetch-adds.
	img := func(a uint32) uint32 {
		for i, addr := range l.words {
			if uint32(addr) == a {
				return e.Image[i]
			}
		}
		t.Fatalf("address %#x not in layout", a)
		return 0
	}
	if got := img(uint32(l.chunks)); got != 0x4444 {
		t.Errorf("chunk word 0 = %#x, want 0x4444", got)
	}
	if got := img(uint32(l.chunks) + 4); got != 0x2222 {
		t.Errorf("chunk word 1 = %#x, want 0x2222", got)
	}
	if got := img(uint32(l.atomics)); got != 12 {
		t.Errorf("atomic word 0 = %d, want 12", got)
	}
}

func TestTinyCasePassesAllConfigs(t *testing.T) {
	rep := CheckCase(tinyCase(), nil, RunOpts{})
	if rep.Failed() {
		t.Fatal(rep.Err())
	}
	if len(rep.Outcomes) != 6 {
		t.Fatalf("ran %d configurations, want 6", len(rep.Outcomes))
	}
	for _, o := range rep.Outcomes {
		// Transition coverage exists only where a Spandex LLC does (the
		// hierarchical baselines have no audited transition graph).
		if strings.HasPrefix(o.Config, "S") && len(o.Res.Transitions) == 0 {
			t.Errorf("%s: no transitions recorded", o.Config)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		a := Generate(seed, GenParams{}).ToJSON()
		b := Generate(seed, GenParams{}).ToJSON()
		if !bytes.Equal(a, b) {
			t.Fatalf("seed %d: two generations differ", seed)
		}
	}
	if bytes.Equal(Generate(1, GenParams{}).ToJSON(), Generate(2, GenParams{}).ToJSON()) {
		t.Fatal("distinct seeds produced identical cases")
	}
}

func TestGeneratedCasesValidate(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		c := Generate(seed, GenParams{})
		if err := c.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestGeneratedCasesConform(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		rep := CheckCase(Generate(seed, GenParams{}), nil, RunOpts{})
		if rep.Failed() {
			t.Fatalf("seed %d: %v", seed, rep.Err())
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	c := Generate(7, GenParams{})
	data := c.ToJSON()
	back, err := FromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.ToJSON(), data) {
		t.Fatal("round trip changed the case")
	}
}

func TestValidateRejectsRaces(t *testing.T) {
	breakCase := func(mut func(*Case)) *Case {
		c := tinyCase()
		mut(c)
		return c
	}
	cases := []struct {
		name string
		c    *Case
		want string
	}{
		{"store to unowned chunk", breakCase(func(c *Case) {
			c.Threads[1].Ops[0] = append(c.Threads[1].Ops[0],
				Op{Kind: OpStore, Region: RegChunk, Chunk: 0, Word: 0, Val: 1})
		}), "race"},
		{"load of unowned chunk", breakCase(func(c *Case) {
			c.Threads[1].Ops[0] = append(c.Threads[1].Ops[0],
				Op{Kind: OpLoad, Region: RegChunk, Chunk: 0, Word: 0})
		}), "race"},
		{"store to ro", breakCase(func(c *Case) {
			c.Threads[0].Ops[0] = append(c.Threads[0].Ops[0],
				Op{Kind: OpStore, Region: RegRO, Word: 0, Val: 1})
		}), "read-only"},
		{"plain load on atomic word", breakCase(func(c *Case) {
			c.Threads[0].Ops[0] = append(c.Threads[0].Ops[0],
				Op{Kind: OpLoad, Region: RegAtomic, Word: 0})
		}), "race"},
		{"fetchadd outside atomic region", breakCase(func(c *Case) {
			c.Threads[0].Ops[0] = append(c.Threads[0].Ops[0],
				Op{Kind: OpFetchAdd, Region: RegPrivate, Word: 0, Val: 1})
		}), "confined"},
		{"owner out of range", breakCase(func(c *Case) { c.Owner[0][0] = 9 }), "out of range"},
		{"owner schedule shape", breakCase(func(c *Case) { c.Owner = c.Owner[:1] }), "phases"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.c.Validate()
			if err == nil {
				t.Fatal("Validate accepted a broken case")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestClassifyPrecedence perturbs real outcomes to drive each verdict.
func TestClassifyPrecedence(t *testing.T) {
	c := tinyCase()
	base := func() *Report {
		return CheckCase(c, []string{"HMG", "SDD"}, RunOpts{})
	}

	if rep := base(); rep.Kind != KindPass {
		t.Fatalf("baseline: %v", rep.Err())
	}
	l := c.layout()
	e := c.Expect(l)

	rep := base()
	rep.Outcomes[1].Logs[1][1] ^= 0xdead
	rep.Failures, rep.Kind = nil, ""
	classify(rep, l, e)
	if rep.Kind != KindDivergence {
		t.Fatalf("perturbed log classified %s, want %s (%v)", rep.Kind, KindDivergence, rep.Failures)
	}
	if len(rep.Failures) == 0 || !strings.Contains(rep.Failures[0], "thread 1") {
		t.Fatalf("divergence failure does not locate the load: %v", rep.Failures)
	}

	rep = base()
	rep.Outcomes[1].Image[len(rep.Outcomes[1].Image)-1]++
	rep.Failures, rep.Kind = nil, ""
	classify(rep, l, e)
	if rep.Kind != KindDivergence {
		t.Fatalf("perturbed image classified %s, want %s", rep.Kind, KindDivergence)
	}

	// An identical model disagreement in every configuration is a model
	// bug, not a protocol bug.
	rep = base()
	for _, o := range rep.Outcomes {
		o.SelfErrs[0] = errFake{}
	}
	rep.Failures, rep.Kind = nil, ""
	classify(rep, l, e)
	if rep.Kind != KindModelBug {
		t.Fatalf("unanimous self-error classified %s, want %s", rep.Kind, KindModelBug)
	}

	// A run error outranks everything.
	rep = base()
	rep.Outcomes[0].RunErr = errFake{}
	rep.Outcomes[1].Logs[1][1] ^= 0xdead
	rep.Failures, rep.Kind = nil, ""
	classify(rep, l, e)
	if rep.Kind != KindRunError {
		t.Fatalf("run error classified %s, want %s", rep.Kind, KindRunError)
	}
}

type errFake struct{}

func (errFake) Error() string { return "synthetic failure" }
