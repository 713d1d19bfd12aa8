// Package mcheck is an exhaustive explicit-state model checker for tiny
// Spandex configurations (2–3 devices, one or two cache lines, a couple of
// words). It enumerates every interleaving of message deliveries and
// device operation issues — subject to the network's per-(src,dst) FIFO
// ordering guarantee, which the protocols assume — memoizing canonicalized
// states so each distinct protocol state is expanded once. Every explored
// state is audited with core.Checker's SWMR/disjointness invariants; on
// top of those, mcheck adds deadlock detection (quiescent system with
// unfinished operations), a data-value check (every loaded value must have
// been written to that word by someone, ruling out out-of-thin-air and
// cross-word corruption), and the quiescent-state ownership audit at every
// terminal state. Violations are reported with the concrete interleaving
// trace that reaches them.
package mcheck

import (
	"fmt"

	"spandex/internal/core"
	"spandex/internal/device"
	"spandex/internal/memaddr"
	"spandex/internal/proto"
)

// Proto names an L1 protocol a scripted device speaks.
type Proto string

const (
	// ProtoMESI is a MESI L1 behind a MESI translation unit.
	ProtoMESI Proto = "mesi"
	// ProtoDeNovo is a DeNovo L1 (word-granularity ownership).
	ProtoDeNovo Proto = "denovo"
	// ProtoGPU is a GPU-coherence L1 (write-through, no ownership).
	ProtoGPU Proto = "gpu"
)

// l1Protocol maps p onto the machine assembly's protocol selector.
func (p Proto) l1Protocol() core.L1Protocol {
	switch p {
	case ProtoMESI:
		return core.MESI
	case ProtoDeNovo:
		return core.DeNovo
	case ProtoGPU:
		return core.GPUCoherence
	}
	panic("mcheck: unknown protocol " + string(p))
}

// Pairing is one (CPU protocol, GPU protocol) combination from the
// paper's Spandex configurations.
type Pairing struct {
	CPU Proto // ProtoMESI or ProtoDeNovo
	GPU Proto // ProtoGPU or ProtoDeNovo
}

func (p Pairing) String() string { return string(p.CPU) + "+" + string(p.GPU) }

// Pairings enumerates every CPU×GPU protocol combination the Spandex LLC
// must compose: {MESI, DeNovo} × {GPU coherence, DeNovo}.
func Pairings() []Pairing {
	return []Pairing{
		{CPU: ProtoMESI, GPU: ProtoGPU},
		{CPU: ProtoMESI, GPU: ProtoDeNovo},
		{CPU: ProtoDeNovo, GPU: ProtoGPU},
		{CPU: ProtoDeNovo, GPU: ProtoDeNovo},
	}
}

// DeviceScript is one scripted device: its protocol and its (in-order)
// operation sequence. Scripts are restricted to loads, stores, fetch-adds
// and release fences — fences are required after stores because every L1
// buffers writes lazily (drain happens under occupancy pressure or at a
// release), so an unfenced store generates no protocol traffic to explore.
// The data-value check derives each word's legal value set from the stores
// and the subset-sum closure of the fetch-adds.
type DeviceScript struct {
	Proto Proto
	Ops   []device.Op
}

// InitVal seeds one word of backing memory before the run.
type InitVal struct {
	Addr memaddr.Addr
	Val  uint32
}

// Scenario is a tiny closed system to model-check.
type Scenario struct {
	Name    string
	Devices []DeviceScript
	Init    []InitVal
	// LLCBytes/LLCWays size the LLC array (per bank when LLCBanks > 1);
	// zero means 8 lines × 2 ways, plenty for the one- or two-line
	// scenarios (no evictions). The evict-* scenarios shrink this to a
	// single line to force victimization.
	LLCBytes, LLCWays int
	// LLCBanks shards the LLC into address-interleaved banks on their own
	// NoC nodes (proto.BankOf line homing, like the full simulator's
	// bank-sharded LLC). 0 or 1 is the flat single LLC every pre-banking
	// scenario uses. The bank-* scenarios set 2 to explore concurrent
	// transactions on independent directories.
	LLCBanks int
	// DevBytes/DevWays size every device L1; zero means 4 lines × 2 ways
	// (no device-side evictions). The wb-* scenarios shrink this to a
	// single line so device evictions race LLC revocations.
	DevBytes, DevWays int
	// Heavy marks scenarios whose exploration is expensive even fully
	// reduced (thousands of states over deep replay chains). The -race CI
	// lane (`go test -race -short`) skips them; the plain test suite and
	// the CI mcheck-smoke coverage run still explore them.
	Heavy bool
}

// word returns the address of word i of line 0.
func word(i int) memaddr.Addr { return memaddr.Addr(i * 4) }

func load(a memaddr.Addr) device.Op {
	return device.Op{Kind: device.OpLoad, Addr: a}
}

func store(a memaddr.Addr, v uint32) device.Op {
	return device.Op{Kind: device.OpStore, Addr: a, Value: v}
}

// fence is a release: it drains the write buffer and pending ownership
// requests before the next operation issues.
func fence() device.Op {
	return device.Op{Kind: device.OpFence, Rel: true}
}

// fetchadd atomically adds v to a word and returns the old value (the GPU
// path issues it as ReqWTData).
func fetchadd(a memaddr.Addr, v uint32) device.Op {
	return device.Op{Kind: device.OpAtomic, Atomic: proto.AtomicFetchAdd, Addr: a, Value: v}
}

// lineWord returns the address of word i of line n.
func lineWord(n, i int) memaddr.Addr {
	return memaddr.Addr(n*memaddr.LineBytes + i*4)
}

// Scenarios returns the standard scenario set for a pairing. All pairings
// get the two-device message-passing and racing-store shapes; MESI CPUs
// additionally get three-device shapes that reach the Shared state (two
// MESI readers force ReqS option (1)) and, with a DeNovo GPU, the
// mixed-ownership ReqS whose revocation forwards RvkO to a
// self-invalidating owner — the paths the seeded mutations break.
func Scenarios(p Pairing) []Scenario {
	cpu, gpu := p.CPU, p.GPU
	scns := []Scenario{
		{
			// Producer/consumer on one line: CPU writes data then flag, GPU
			// reads flag then data. No fences, so any written value (or the
			// initial zero) is legal; the checks are coherence and deadlock
			// freedom, not ordering.
			Name: "mp",
			Devices: []DeviceScript{
				{Proto: cpu, Ops: []device.Op{store(word(0), 42), fence(), store(word(1), 1), fence()}},
				{Proto: gpu, Ops: []device.Op{load(word(1)), load(word(0))}},
			},
		},
		{
			// Cross write-read race on two words of one line (false
			// sharing): exercises ownership transfer against write-through
			// under every delivery order.
			Name: "race",
			Devices: []DeviceScript{
				{Proto: cpu, Ops: []device.Op{store(word(0), 5), fence(), load(word(1))}},
				{Proto: gpu, Ops: []device.Op{store(word(1), 7), fence(), load(word(0))}},
			},
		},
		{
			// Same-word write/write/read race: both devices store to word 0
			// then read it back.
			Name: "samword",
			Devices: []DeviceScript{
				{Proto: cpu, Ops: []device.Op{store(word(0), 1), fence(), load(word(0))}},
				{Proto: gpu, Ops: []device.Op{store(word(0), 2), fence(), load(word(0))}},
			},
		},
	}
	// Capacity pressure: a one-line LLC forces the GPU's second-line touch
	// to evict whatever the CPU's traffic installed, covering the
	// eviction-revocation handshake (O+evict → RspRvkO resolution) the
	// no-eviction scenarios never reach.
	scns = append(scns, Scenario{
		Name:     "evict-owned",
		LLCBytes: memaddr.LineBytes, LLCWays: 1,
		Devices: []DeviceScript{
			{Proto: cpu, Ops: []device.Op{store(lineWord(0, 0), 5), fence()}},
			{Proto: gpu, Ops: []device.Op{load(lineWord(1, 0))}},
		},
	})
	if cpu == ProtoMESI {
		// Two MESI readers reach Shared state via ReqS option (1); the GPU
		// write then drives the sharer-invalidation (Inv/InvAck) path the
		// drop-InvAck mutation breaks.
		scns = append(scns, Scenario{
			Name: "share",
			Devices: []DeviceScript{
				{Proto: cpu, Ops: []device.Op{load(word(0))}},
				{Proto: cpu, Ops: []device.Op{load(word(0))}},
				{Proto: gpu, Ops: []device.Op{store(word(0), 9), fence(), load(word(0))}},
			},
		})
	}
	if cpu == ProtoMESI {
		// Shared-line eviction: two MESI readers put line 0 in Shared, then
		// the GPU's touch of line 1 evicts it from a one-line LLC — the
		// sharer-invalidating eviction whose acks resolve at V+evict.
		scns = append(scns, Scenario{
			Name:     "evict-shared",
			LLCBytes: memaddr.LineBytes, LLCWays: 1,
			Devices: []DeviceScript{
				{Proto: cpu, Ops: []device.Op{load(lineWord(0, 0))}},
				{Proto: cpu, Ops: []device.Op{load(lineWord(0, 0))}},
				{Proto: gpu, Ops: []device.Op{load(lineWord(1, 0))}},
			},
		})
	}
	if cpu == ProtoMESI && gpu == ProtoGPU {
		// GPU atomic on a line two MESI CPUs hold Shared (false sharing of
		// the atomic word with read data): the ReqWTData must invalidate the
		// sharers before performing the RMW at the LLC — the S|ReqWTData
		// row no other scenario or conformance case can produce (conform
		// line-aligns its atomic region away from plain data).
		scns = append(scns, Scenario{
			Name: "shared-atomic",
			Devices: []DeviceScript{
				{Proto: cpu, Ops: []device.Op{load(word(0))}},
				{Proto: cpu, Ops: []device.Op{load(word(0))}},
				{Proto: gpu, Ops: []device.Op{fetchadd(word(1), 3), load(word(1))}},
			},
		})
	}
	if cpu == ProtoMESI && gpu == ProtoDeNovo {
		// Mixed per-word ownership: CPU0 (MESI) owns word 0, the DeNovo GPU
		// owns word 1, and CPU1's line-granularity ReqS hits both — option
		// (1) forwards ReqS to the MESI owner and RvkO to the DeNovo owner
		// (the probe the skip-RvkO mutation drops).
		scns = append(scns, Scenario{
			Name: "mixed-owner",
			Devices: []DeviceScript{
				{Proto: cpu, Ops: []device.Op{store(word(0), 5), fence()}},
				{Proto: cpu, Ops: []device.Op{load(word(0))}},
				{Proto: gpu, Ops: []device.Op{store(word(1), 3), fence(), load(word(1))}},
			},
		})
	}
	// Four-device shapes: feasible only under the partial-order and
	// symmetry reductions — full interleaving exploration of these blows
	// the state budget.
	scns = append(scns,
		Scenario{
			// Mixed 2-CPU + 2-CU same-word race: four writers and readers
			// on one word, two per protocol. The two devices of each
			// protocol run symmetric scripts, so canonicalization folds
			// their permutations.
			Name: "samword4",
			Devices: []DeviceScript{
				{Proto: cpu, Ops: []device.Op{store(word(0), 1), fence()}},
				{Proto: cpu, Ops: []device.Op{store(word(0), 2), fence()}},
				{Proto: gpu, Ops: []device.Op{load(word(0))}},
				{Proto: gpu, Ops: []device.Op{load(word(0))}},
			},
		},
		Scenario{
			// Two independent producer/consumer handoffs on disjoint lines:
			// the cross-line action pairs are statically independent, so the
			// ample-set reduction explores the two handoffs near-additively
			// instead of multiplicatively.
			Name: "mp22",
			Devices: []DeviceScript{
				{Proto: cpu, Ops: []device.Op{store(lineWord(0, 0), 42), fence(), store(lineWord(0, 1), 1), fence()}},
				{Proto: cpu, Ops: []device.Op{store(lineWord(1, 0), 43), fence(), store(lineWord(1, 1), 1), fence()}},
				{Proto: gpu, Ops: []device.Op{load(lineWord(0, 1)), load(lineWord(0, 0))}},
				{Proto: gpu, Ops: []device.Op{load(lineWord(1, 1)), load(lineWord(1, 0))}},
			},
		},
		Scenario{
			// One writer fanning out to five identical readers (six devices):
			// the readers are fully interchangeable, the stress case for the
			// symmetry canonicalization.
			Name: "fan6",
			Devices: []DeviceScript{
				{Proto: cpu, Ops: []device.Op{store(word(0), 7), fence()}},
				{Proto: gpu, Ops: []device.Op{load(word(0))}},
				{Proto: gpu, Ops: []device.Op{load(word(0))}},
				{Proto: gpu, Ops: []device.Op{load(word(0))}},
				{Proto: gpu, Ops: []device.Op{load(word(0))}},
				{Proto: gpu, Ops: []device.Op{load(word(0))}},
			},
		},
	)
	// Device write-back racing LLC eviction. Device L1s evict at fill
	// time, so the evicting fill must target a line that misses in the
	// one-line L1 but does NOT conflict at the LLC: a two-set LLC maps
	// lines 0 and 2 to set 0 and line 1 to set 1. The CPU's line-1 fill
	// then evicts its owned line 0 (ReqWB in flight) while the LLC still
	// records the ownership; the GPU's line-2 touch evicts LLC line 0
	// (RvkO) concurrently. The crossing covers ReqWB arriving at an open
	// eviction (O+evict|ReqWB) and the stale RspRvkO — answering a
	// revocation the ReqWB already resolved — landing after the line is
	// gone or mid-refetch (I|RspRvkO, F+fetch|RspRvkO; with a DeNovo GPU
	// the GPU's own line-2 ownership blocks the refetch's victim eviction
	// long enough for I+fetch|RspRvkO).
	scns = append(scns, Scenario{
		Name:     "wb-race",
		LLCBytes: 2 * memaddr.LineBytes, LLCWays: 1,
		DevBytes: memaddr.LineBytes, DevWays: 1,
		Devices: []DeviceScript{
			{Proto: cpu, Ops: []device.Op{store(lineWord(0, 0), 1), fence(), load(lineWord(1, 0))}},
			{Proto: gpu, Ops: []device.Op{store(lineWord(2, 0), 4), fence(), load(lineWord(0, 1))}},
		},
	})
	// Bank-crossing write-back race: with two banks, line 0 homes at bank
	// 0 and line 1 at bank 1, so the CPU's line-1 fill (ReqV to bank 1)
	// races its eviction write-back of owned line 0 (ReqWB to bank 0) on
	// disjoint directories — no single-bank serialization hides the
	// crossing. The GPU's line-2 store lands at bank 0 (2 mod 2) and, with
	// a one-line bank, evicts line 0 there (RvkO toward the CPU) while the
	// ReqWB is still in flight: the wb-race shape, but with the revocation
	// and the write-back resolving on banks that cannot observe each
	// other's transaction tables.
	scns = append(scns, Scenario{
		Name:     "bank-wb",
		LLCBanks: 2,
		LLCBytes: memaddr.LineBytes, LLCWays: 1,
		DevBytes: memaddr.LineBytes, DevWays: 1,
		Devices: []DeviceScript{
			{Proto: cpu, Ops: []device.Op{store(lineWord(0, 0), 1), fence(), load(lineWord(1, 0))}},
			{Proto: gpu, Ops: []device.Op{store(lineWord(2, 0), 4), fence(), load(lineWord(0, 1))}},
		},
	})
	// Cross-bank ownership migration: the CPU acquires word ownership of
	// line 0 (bank 0) and line 1 (bank 1); the GPU then writes through to a
	// different word of line 0 (false sharing → RvkO at bank 0) while
	// loading line 1 (owner forward at bank 1). Both banks concurrently run
	// ownership-transfer transactions against the same two devices, in
	// every delivery order — the directories must converge independently
	// and the terminal quiescence audit must hold per bank.
	scns = append(scns, Scenario{
		Name:     "bank-migrate",
		LLCBanks: 2,
		Devices: []DeviceScript{
			{Proto: cpu, Ops: []device.Op{store(lineWord(0, 0), 1), fence(), store(lineWord(1, 0), 2), fence()}},
			{Proto: gpu, Ops: []device.Op{store(lineWord(0, 1), 3), fence(), load(lineWord(1, 0))}},
		},
	})
	if cpu == ProtoMESI {
		// Stale write-back outliving its ownership epoch: CPU0 owns line 0
		// and its line-1 fill evicts it (full-line ReqWB in flight); CPU1's
		// full-line ReqOData transfers the whole line away from CPU0 at
		// forward time — no CPU0 input — and CPU1's own eviction
		// write-back then clears the last owner. CPU0's ReqWB is still
		// undelivered while line 0 passes through V, an LLC eviction (I,
		// via the GPU's conflicting line-2 store) and a refetch
		// (F+fetch, and I+fetch when a DeNovo GPU's line-2 ownership
		// blocks the victim eviction) — the non-owner rows of the stale
		// write-back contract.
		scns = append(scns, Scenario{
			Name:     "wb-stale",
			Heavy:    true,
			LLCBytes: 2 * memaddr.LineBytes, LLCWays: 1,
			DevBytes: memaddr.LineBytes, DevWays: 1,
			Devices: []DeviceScript{
				{Proto: cpu, Ops: []device.Op{store(lineWord(0, 0), 1), fence(), load(lineWord(1, 0))}},
				{Proto: cpu, Ops: []device.Op{store(lineWord(0, 1), 2), fence(), load(lineWord(1, 0))}},
				{Proto: gpu, Ops: []device.Op{store(lineWord(2, 0), 4), fence(), load(lineWord(0, 2))}},
			},
		})
	}
	// Stale write-back meeting a shared line: CPU1's full-line ReqOData
	// steals line 0 from CPU0 while CPU0's eviction ReqWB is in flight;
	// CPU2's ReqS then demotes CPU1 to sharer (option 1), so the line is
	// Shared with the stale ReqWB still undelivered (S|ReqWB). The GPU's
	// write-through opens the sharer invalidation under it (V+inv|ReqWB)
	// and its conflicting line-2 load the sharer-invalidating eviction
	// (V+evict|ReqWB, V+evict|RspRvkO). Gated to the plain-GPU pairing:
	// the DeNovo-GPU variant costs nearly 3x the states and observes no
	// additional (state, msg) pairs.
	if cpu == ProtoMESI && gpu == ProtoGPU {
		scns = append(scns, Scenario{
			Name:     "wb-share",
			Heavy:    true,
			LLCBytes: 2 * memaddr.LineBytes, LLCWays: 1,
			DevBytes: memaddr.LineBytes, DevWays: 1,
			Devices: []DeviceScript{
				{Proto: cpu, Ops: []device.Op{store(lineWord(0, 0), 1), fence(), load(lineWord(1, 0))}},
				{Proto: cpu, Ops: []device.Op{store(lineWord(0, 1), 2), fence()}},
				{Proto: cpu, Ops: []device.Op{load(lineWord(0, 3))}},
				{Proto: gpu, Ops: []device.Op{store(lineWord(0, 2), 3), fence(), load(lineWord(2, 0))}},
			},
		})
	}
	return scns
}

// ScenarioByName resolves one of a pairing's scenarios.
func ScenarioByName(p Pairing, name string) (Scenario, error) {
	for _, s := range Scenarios(p) {
		if s.Name == name {
			return s, nil
		}
	}
	return Scenario{}, fmt.Errorf("mcheck: pairing %s has no scenario %q", p, name)
}
