package gpucoh_test

import (
	"testing"

	"spandex/internal/core"
	"spandex/internal/device"
	"spandex/internal/dram"
	"spandex/internal/gpucoh"
	"spandex/internal/memaddr"
	"spandex/internal/noc"
	"spandex/internal/proto"
	"spandex/internal/sim"
	"spandex/internal/stats"
)

// rig wires N GPU-coherence L1s to a Spandex LLC.
type rig struct {
	t   *testing.T
	eng *sim.Engine
	st  *stats.Stats
	net *noc.Network
	llc *core.LLC
	mem *dram.Memory
	l1s []*gpucoh.L1
	chk *core.Checker
}

func newRig(t *testing.T, n int) *rig {
	r := &rig{t: t, eng: sim.New(), st: stats.New()}
	r.net = noc.New(r.eng, r.st, noc.DefaultConfig(), n+2)
	llcID, memID := proto.NodeID(n), proto.NodeID(n+1)
	r.llc = core.NewLLC(llcID, memID, r.eng, r.net, r.st,
		core.Config{SizeBytes: 64 * 1024, Ways: 8, AccessLatency: 12 * sim.CPUCycle})
	r.mem = dram.New(memID, r.eng, r.net, 80*sim.CPUCycle)
	r.chk = core.NewChecker()
	r.llc.SetChecker(r.chk)
	for i := 0; i < n; i++ {
		id := proto.NodeID(i)
		l1 := gpucoh.New(id, r.eng, r.net.PortFor(id), r.st, gpucoh.DefaultConfig(llcID))
		r.net.Register(id, l1)
		r.llc.RegisterDevice(id, false)
		r.chk.AttachDevice(id, l1)
		r.l1s = append(r.l1s, l1)
	}
	return r
}

func (r *rig) run() {
	if !r.eng.RunUntil(1 << 42) {
		r.t.Fatal("rig: did not drain")
	}
	if err := r.chk.CheckQuiescent(r.llc); err != nil {
		r.t.Fatal(err)
	}
}

// load performs a blocking load and returns the value.
func (r *rig) load(l1 *gpucoh.L1, addr memaddr.Addr) uint32 {
	var got uint32
	hit := false
	if !l1.Access(device.Op{Kind: device.OpLoad, Addr: addr}, func(v uint32) { got = v; hit = true }) {
		r.t.Fatal("load rejected")
	}
	r.run()
	if !hit {
		r.t.Fatal("load never completed")
	}
	return got
}

// store buffers a write and flushes it to global visibility (the write
// buffer drains lazily; tests that exercise coalescing use raw Access).
func (r *rig) store(l1 *gpucoh.L1, addr memaddr.Addr, v uint32) {
	op := device.Op{Kind: device.OpStore, Addr: addr, Value: v}
	for tries := 0; ; tries++ {
		if l1.Access(op, func(uint32) {}) {
			break
		}
		// Buffer full: let the memory system drain, as a device would.
		if !r.eng.Step() || tries > 1<<20 {
			r.t.Fatal("store rejected with nothing in flight")
		}
	}
	l1.Flush(func() {})
	r.run()
}

func (r *rig) atomic(l1 *gpucoh.L1, addr memaddr.Addr, kind proto.AtomicKind, operand uint32) uint32 {
	var got uint32
	ok := false
	if !l1.Access(device.Op{Kind: device.OpAtomic, Addr: addr, Atomic: kind, Value: operand},
		func(v uint32) { got = v; ok = true }) {
		r.t.Fatal("atomic rejected")
	}
	r.run()
	if !ok {
		r.t.Fatal("atomic never completed")
	}
	return got
}

func TestLoadMissFillsLine(t *testing.T) {
	r := newRig(t, 1)
	var init memaddr.LineData
	for i := range init {
		init[i] = uint32(i + 1)
	}
	r.mem.Poke(0x1000, init)
	if v := r.load(r.l1s[0], 0x1004); v != 2 {
		t.Fatalf("v = %d", v)
	}
	missesAfterFirst := r.st.Get("gpul1.miss")
	// Same line, different word: line-granularity fill means a hit.
	if v := r.load(r.l1s[0], 0x103c); v != 16 {
		t.Fatalf("v = %d", v)
	}
	if r.st.Get("gpul1.miss") != missesAfterFirst {
		t.Fatal("second load missed despite line fill")
	}
	if r.st.Get("gpul1.hit") == 0 {
		t.Fatal("no hit recorded")
	}
}

func TestWriteThroughVisibleToOtherL1(t *testing.T) {
	r := newRig(t, 2)
	r.store(r.l1s[0], 0x2000, 77)
	r.run()
	if v := r.load(r.l1s[1], 0x2000); v != 77 {
		t.Fatalf("remote load got %d", v)
	}
}

func TestStoreCoalescing(t *testing.T) {
	r := newRig(t, 1)
	for i := 0; i < 8; i++ {
		if !r.l1s[0].Access(device.Op{Kind: device.OpStore,
			Addr: memaddr.Addr(0x3000 + i*4), Value: uint32(i)}, func(uint32) {}) {
			t.Fatal("store rejected")
		}
	}
	r.l1s[0].Flush(func() {})
	r.run()
	if n := r.st.Get("gpul1.wt"); n != 1 {
		t.Fatalf("write-throughs = %d, want 1 (coalesced)", n)
	}
	// All values at the LLC.
	for i := 0; i < 8; i++ {
		if v := r.load(r.l1s[0], memaddr.Addr(0x3000+i*4)); v != uint32(i) {
			t.Fatalf("word %d = %d", i, v)
		}
	}
}

func TestStoreLoadForwarding(t *testing.T) {
	r := newRig(t, 1)
	// Buffer a store without flushing: the read-back must forward from
	// the write buffer.
	if !r.l1s[0].Access(device.Op{Kind: device.OpStore, Addr: 0x4000, Value: 5}, func(uint32) {}) {
		t.Fatal("store rejected")
	}
	if v := r.load(r.l1s[0], 0x4000); v != 5 {
		t.Fatalf("v = %d", v)
	}
}

func TestAtomicsSerializeAtLLC(t *testing.T) {
	r := newRig(t, 2)
	a := r.atomic(r.l1s[0], 0x5000, proto.AtomicFetchAdd, 1)
	b := r.atomic(r.l1s[1], 0x5000, proto.AtomicFetchAdd, 1)
	if a != 0 || b != 1 {
		t.Fatalf("a=%d b=%d", a, b)
	}
	if v := r.load(r.l1s[0], 0x5000); v != 2 {
		t.Fatalf("final = %d", v)
	}
}

func TestAtomicDowngradesLocalWord(t *testing.T) {
	r := newRig(t, 1)
	l1 := r.l1s[0]
	r.load(l1, 0x6000) // cache the line
	r.atomic(l1, 0x6000, proto.AtomicFetchAdd, 3)
	// Word must no longer be valid locally (the response data is stale by
	// definition); next load refetches and sees the updated value.
	missBefore := r.st.Get("gpul1.miss")
	if v := r.load(l1, 0x6000); v != 3 {
		t.Fatalf("v = %d", v)
	}
	if r.st.Get("gpul1.miss") != missBefore+1 {
		t.Fatal("load after atomic did not miss")
	}
}

func TestSelfInvalidateDropsStaleData(t *testing.T) {
	r := newRig(t, 2)
	a, b := r.l1s[0], r.l1s[1]
	if v := r.load(a, 0x7000); v != 0 {
		t.Fatalf("v = %d", v)
	}
	// Remote write-through.
	r.store(b, 0x7000, 9)
	r.run()
	// Without invalidation the stale 0 is still cached.
	if v := r.load(a, 0x7000); v != 0 {
		t.Fatal("expected stale hit before self-invalidation (self-inv model)")
	}
	a.SelfInvalidate()
	if v := r.load(a, 0x7000); v != 9 {
		t.Fatalf("post-acquire load = %d", v)
	}
}

func TestFlushWaitsForWriteThroughs(t *testing.T) {
	r := newRig(t, 1)
	l1 := r.l1s[0]
	// Buffer two stores without draining.
	for _, a := range []memaddr.Addr{0x8000, 0x8100} {
		if !l1.Access(device.Op{Kind: device.OpStore, Addr: a,
			Value: uint32(a >> 8)}, func(uint32) {}) {
			t.Fatal("store rejected")
		}
	}
	flushed := false
	l1.Flush(func() { flushed = true })
	if flushed {
		t.Fatal("flush completed with write-throughs in flight")
	}
	r.run()
	if !flushed {
		t.Fatal("flush never completed")
	}
	if v := r.load(l1, 0x8100); v != 0x81 {
		t.Fatalf("v = %d", v)
	}
}

func TestManyLinesEvictionSafe(t *testing.T) {
	// Stream far more lines than the 32KB L1 holds; write-through caches
	// evict silently and everything stays consistent.
	r := newRig(t, 1)
	l1 := r.l1s[0]
	for i := 0; i < 2048; i++ {
		r.store(l1, memaddr.Addr(0x10000+i*64), uint32(i))
	}
	r.run()
	for i := 0; i < 2048; i += 97 {
		if v := r.load(l1, memaddr.Addr(0x10000+i*64)); v != uint32(i) {
			t.Fatalf("line %d = %d", i, v)
		}
	}
}

func TestCASAtLLC(t *testing.T) {
	r := newRig(t, 2)
	if old := r.atomic(r.l1s[0], 0x9000, proto.AtomicFetchAdd, 10); old != 0 {
		t.Fatalf("old = %d", old)
	}
	// CAS succeeds when expectation matches.
	var got uint32
	done := false
	r.l1s[1].Access(device.Op{Kind: device.OpAtomic, Addr: 0x9000,
		Atomic: proto.AtomicCAS, Value: 99, Compare: 10},
		func(v uint32) { got = v; done = true })
	r.run()
	if !done || got != 10 {
		t.Fatalf("cas old = %d", got)
	}
	if v := r.load(r.l1s[0], 0x9000); v != 99 {
		t.Fatalf("final = %d", v)
	}
}
