package denovo_test

import (
	"testing"

	"spandex/internal/core"
	"spandex/internal/denovo"
	"spandex/internal/device"
	"spandex/internal/dram"
	"spandex/internal/gpucoh"
	"spandex/internal/memaddr"
	"spandex/internal/noc"
	"spandex/internal/proto"
	"spandex/internal/sim"
	"spandex/internal/stats"
)

// rig wires DeNovo L1s (and optionally GPU-coherence L1s) to a Spandex LLC.
type rig struct {
	t   *testing.T
	eng *sim.Engine
	st  *stats.Stats
	net *noc.Network
	llc *core.LLC
	mem *dram.Memory
	dn  []*denovo.L1
	gpu []*gpucoh.L1
	chk *core.Checker
}

func newRig(t *testing.T, nDN, nGPU int) *rig { return newRigWith(t, nDN, nGPU, nil) }

// newRigWith is newRig with edit (when non-nil) applied to every DeNovo
// L1's configuration.
func newRigWith(t *testing.T, nDN, nGPU int, edit func(*denovo.Config)) *rig {
	r := &rig{t: t, eng: sim.New(), st: stats.New()}
	n := nDN + nGPU
	r.net = noc.New(r.eng, r.st, noc.DefaultConfig(), n+2)
	llcID, memID := proto.NodeID(n), proto.NodeID(n+1)
	r.llc = core.NewLLC(llcID, memID, r.eng, r.net, r.st,
		core.Config{SizeBytes: 64 * 1024, Ways: 8, AccessLatency: 12 * sim.CPUCycle})
	r.mem = dram.New(memID, r.eng, r.net, 80*sim.CPUCycle)
	r.chk = core.NewChecker()
	r.llc.SetChecker(r.chk)
	for i := 0; i < nDN; i++ {
		id := proto.NodeID(i)
		cfg := denovo.DefaultConfig(llcID, false)
		if edit != nil {
			edit(&cfg)
		}
		l1 := denovo.New(id, r.eng, r.net.PortFor(id), r.st, cfg)
		r.net.Register(id, l1)
		r.llc.RegisterDevice(id, false)
		r.chk.AttachDevice(id, l1)
		r.dn = append(r.dn, l1)
	}
	for i := 0; i < nGPU; i++ {
		id := proto.NodeID(nDN + i)
		l1 := gpucoh.New(id, r.eng, r.net.PortFor(id), r.st, gpucoh.DefaultConfig(llcID))
		r.net.Register(id, l1)
		r.llc.RegisterDevice(id, false)
		r.chk.AttachDevice(id, l1)
		r.gpu = append(r.gpu, l1)
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

func (r *rig) access(l1 device.L1Cache, op device.Op) uint32 {
	var got uint32
	ok := false
	for tries := 0; ; tries++ {
		if l1.Access(op, func(v uint32) { got = v; ok = true }) {
			break
		}
		if !r.eng.Step() || tries > 1<<20 {
			r.t.Fatal("access rejected forever")
		}
	}
	r.run()
	if !ok {
		r.t.Fatalf("%v op never completed", op.Kind)
	}
	return got
}

func (r *rig) load(l1 device.L1Cache, a memaddr.Addr) uint32 {
	return r.access(l1, device.Op{Kind: device.OpLoad, Addr: a})
}

// store buffers a write and flushes it to global visibility.
func (r *rig) store(l1 device.L1Cache, a memaddr.Addr, v uint32) {
	r.access(l1, device.Op{Kind: device.OpStore, Addr: a, Value: v})
	l1.Flush(func() {})
	r.run()
}
func (r *rig) rmw(l1 device.L1Cache, a memaddr.Addr, k proto.AtomicKind, v uint32) uint32 {
	return r.access(l1, device.Op{Kind: device.OpAtomic, Addr: a, Atomic: k, Value: v})
}

func TestStoreObtainsOwnership(t *testing.T) {
	r := newRig(t, 2, 0)
	r.store(r.dn[0], 0x1000, 42)
	if r.st.Get("dnl1.reqo") != 1 {
		t.Fatalf("reqo = %d", r.st.Get("dnl1.reqo"))
	}
	owned := r.dn[0].ProbeOwned()
	if owned[0x1000] != 0b1 {
		t.Fatalf("owned = %v", owned)
	}
	// Re-write after self-invalidation still hits (Owned survives).
	r.dn[0].SelfInvalidate()
	r.store(r.dn[0], 0x1000, 43)
	if r.st.Get("dnl1.store_hit") == 0 {
		t.Fatal("owned store did not hit")
	}
	// Remote reader gets the value from the owner via forwarding.
	if v := r.load(r.dn[1], 0x1000); v != 43 {
		t.Fatalf("remote read = %d", v)
	}
	if r.st.Get("llc.forwards") == 0 {
		t.Fatal("no forward happened")
	}
}

func TestStoreCoalescingIntoMultiWordReqO(t *testing.T) {
	r := newRig(t, 1, 0)
	// Issue back-to-back, within the coalescing window (stores complete
	// into the write buffer synchronously).
	for i := 0; i < 4; i++ {
		if !r.dn[0].Access(device.Op{Kind: device.OpStore,
			Addr: memaddr.Addr(0x2000 + i*4), Value: uint32(10 + i)}, func(uint32) {}) {
			t.Fatal("store rejected")
		}
	}
	r.dn[0].Flush(func() {})
	r.run()
	if n := r.st.Get("dnl1.reqo"); n != 1 {
		t.Fatalf("reqo = %d, want 1 coalesced request", n)
	}
	if r.dn[0].ProbeOwned()[0x2000] != 0b1111 {
		t.Fatalf("owned mask = %#x", r.dn[0].ProbeOwned()[0x2000])
	}
}

func TestSelfInvalidationKeepsOwnedDropsValid(t *testing.T) {
	r := newRig(t, 2, 0)
	a, b := r.dn[0], r.dn[1]
	r.store(a, 0x3000, 1) // a owns word 0
	if v := r.load(a, 0x3040); v != 0 {
		t.Fatal("load failed")
	}
	// Remote write-through... DeNovo writes get ownership; b takes word of
	// the second line.
	r.store(b, 0x3040, 7)
	a.SelfInvalidate()
	// Owned word still hits.
	hitBefore := r.st.Get("dnl1.hit")
	if v := r.load(a, 0x3000); v != 1 {
		t.Fatalf("owned read = %d", v)
	}
	if r.st.Get("dnl1.hit") != hitBefore+1 {
		t.Fatal("owned word did not hit after self-invalidation")
	}
	// Valid word was dropped; reload sees b's value via forward.
	if v := r.load(a, 0x3040); v != 7 {
		t.Fatalf("reload = %d", v)
	}
}

func TestAtomicLocalReuse(t *testing.T) {
	r := newRig(t, 1, 0)
	l1 := r.dn[0]
	if old := r.rmw(l1, 0x4000, proto.AtomicFetchAdd, 1); old != 0 {
		t.Fatalf("old = %d", old)
	}
	missBefore := r.st.Get("dnl1.atomic_miss")
	for i := 1; i < 10; i++ {
		if old := r.rmw(l1, 0x4000, proto.AtomicFetchAdd, 1); old != uint32(i) {
			t.Fatalf("old = %d, want %d", old, i)
		}
	}
	if r.st.Get("dnl1.atomic_miss") != missBefore {
		t.Fatal("owned atomics missed — no reuse")
	}
}

func TestAtomicOwnershipMigrates(t *testing.T) {
	r := newRig(t, 2, 0)
	a, b := r.dn[0], r.dn[1]
	if old := r.rmw(a, 0x5000, proto.AtomicFetchAdd, 1); old != 0 {
		t.Fatal("bad first rmw")
	}
	// b's atomic must revoke a's ownership (fwd ReqO+data) and see 1.
	if old := r.rmw(b, 0x5000, proto.AtomicFetchAdd, 1); old != 1 {
		t.Fatal("atomic value lost in migration")
	}
	if old := r.rmw(a, 0x5000, proto.AtomicFetchAdd, 1); old != 2 {
		t.Fatal("migration back lost value")
	}
	if a.ProbeOwned()[0x5000] != 0b1 || b.ProbeOwned()[0x5000] != 0 {
		t.Fatal("ownership bookkeeping wrong")
	}
}

func TestAtomicsAtLLCMode(t *testing.T) {
	r2 := newRigWith(t, 1, 0, func(c *denovo.Config) { c.AtomicsAtLLC = true })
	l1 := r2.dn[0]
	if old := r2.rmw(l1, 0x6000, proto.AtomicFetchAdd, 5); old != 0 {
		t.Fatal("bad rmw")
	}
	if l1.ProbeOwned()[0x6000] != 0 {
		t.Fatal("AtomicsAtLLC must not obtain ownership")
	}
	if v := r2.load(l1, 0x6000); v != 5 {
		t.Fatalf("value = %d", v)
	}
}

func TestEvictionWritesBackOwned(t *testing.T) {
	r := newRig(t, 1, 0)
	l1 := r.dn[0]
	// 32KB 8-way = 64 sets; lines 64*64B = 4KB apart collide.
	conflict := func(i int) memaddr.Addr { return memaddr.Addr(0x100000 + i*64*64) }
	for i := 0; i < 12; i++ {
		r.store(l1, conflict(i), uint32(100+i))
	}
	r.run()
	if r.st.Get("dnl1.wb_evict") == 0 {
		t.Fatal("no write-back happened")
	}
	for i := 0; i < 12; i++ {
		if v := r.load(l1, conflict(i)); v != uint32(100+i) {
			t.Fatalf("line %d = %d", i, v)
		}
	}
}

func TestGPUReadsDeNovoOwnedWord(t *testing.T) {
	r := newRig(t, 1, 1)
	dn, gpu := r.dn[0], r.gpu[0]
	r.store(dn, 0x7000, 31)
	// GPU line read: word 0 forwarded to the DeNovo owner, rest from LLC.
	if v := r.load(gpu, 0x7000); v != 31 {
		t.Fatalf("gpu read = %d", v)
	}
	if r.st.Get("llc.forwards") == 0 {
		t.Fatal("expected a forward")
	}
}

func TestGPUWriteThroughRevokesDeNovoWord(t *testing.T) {
	r := newRig(t, 1, 1)
	dn, gpu := r.dn[0], r.gpu[0]
	r.store(dn, 0x8000, 1)
	r.store(gpu, 0x8000, 2)
	r.run()
	if dn.ProbeOwned()[0x8000] != 0 {
		t.Fatal("DeNovo still owns a written-through word")
	}
	if v := r.load(r.dn[0], 0x8000); v != 2 {
		t.Fatalf("value = %d", v)
	}
}

func TestNackEscalationAcrossEviction(t *testing.T) {
	// A GPU ReqV is forwarded to a DeNovo owner; the owner silently lost
	// the words via a racing eviction completed before the forward
	// arrives. The requestor must retry and eventually succeed.
	r := newRig(t, 1, 1)
	dn, gpu := r.dn[0], r.gpu[0]
	r.store(dn, 0x9000, 5)

	// Issue the GPU read and, concurrently, force the owner to evict.
	var got uint32
	ok := false
	gpu.Access(device.Op{Kind: device.OpLoad, Addr: 0x9000}, func(v uint32) { got = v; ok = true })
	conflict := func(i int) memaddr.Addr { return memaddr.Addr(0x9000 + i*64*64) }
	for i := 1; i < 10; i++ {
		dn.Access(device.Op{Kind: device.OpStore, Addr: conflict(i), Value: 1}, func(uint32) {})
	}
	r.run()
	if !ok {
		t.Fatal("GPU load never completed (starved)")
	}
	if got != 5 {
		t.Fatalf("got %d, want 5", got)
	}
}

func TestWriteBufferFlush(t *testing.T) {
	r := newRig(t, 1, 0)
	l1 := r.dn[0]
	r.store(l1, 0xa000, 1)
	done := false
	l1.Flush(func() { done = true })
	r.run()
	if !done {
		t.Fatal("flush never completed")
	}
	if l1.ProbeOwned()[0xa000] != 0b1 {
		t.Fatal("flush completed without ownership")
	}
}

// TestOwnershipPingPongStress hammers one word from two DeNovo caches and
// one GPU cache with interleaved in-flight operations, then audits
// invariants and the final value.
func TestOwnershipPingPongStress(t *testing.T) {
	r := newRig(t, 2, 1)
	total := 0
	issue := func(l1 device.L1Cache, n int) {
		for i := 0; i < n; i++ {
			for !l1.Access(device.Op{Kind: device.OpAtomic, Addr: 0xb000,
				Atomic: proto.AtomicFetchAdd, Value: 1}, func(uint32) {}) {
				if !r.eng.Step() {
					t.Fatal("stuck")
				}
			}
			total++
		}
	}
	// Interleave issuance without draining in between.
	for round := 0; round < 10; round++ {
		issue(r.dn[0], 3)
		issue(r.dn[1], 3)
		issue(r.gpu[0], 2)
		// Let a few events fire to create in-flight races.
		for i := 0; i < 50; i++ {
			r.eng.Step()
		}
	}
	r.run()
	if v := r.load(r.dn[0], 0xb000); v != uint32(total) {
		t.Fatalf("final counter = %d, want %d", v, total)
	}
}
