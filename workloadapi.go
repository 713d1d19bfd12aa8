package spandex

import (
	"spandex/internal/device"
	"spandex/internal/memaddr"
	"spandex/internal/proto"
	"spandex/internal/sim"
	"spandex/internal/workload"
)

// This file re-exports the workload-authoring API so users can define
// their own access-pattern programs against the simulated machines (see
// examples/customworkload).

type (
	// Thread is the handle a program body uses to issue memory operations.
	Thread = workload.Thread
	// Meta describes a workload's communication pattern (Table VII form).
	Meta = workload.Meta
	// Barrier is a sense-reversing barrier over two memory words.
	Barrier = workload.Barrier
	// Layout carves the simulated address space into regions.
	Layout = workload.Layout
	// WordInit seeds one word of memory before execution.
	WordInit = workload.WordInit
	// Addr is a byte address in the simulated address space.
	Addr = memaddr.Addr
	// OpStream is a per-thread operation stream.
	OpStream = device.OpStream
	// Rand is the deterministic PRNG used by workloads.
	Rand = workload.Rand
	// AtomicKind selects an RMW operation.
	AtomicKind = proto.AtomicKind
	// Time is simulated time in ticks (1 tick = 1 ps).
	Time = sim.Time
)

// RMW operation kinds.
const (
	AtomicFetchAdd = proto.AtomicFetchAdd
	AtomicExchange = proto.AtomicExchange
	AtomicCAS      = proto.AtomicCAS
	AtomicRead     = proto.AtomicRead
	AtomicMin      = proto.AtomicMin
)

// GoThread runs body as a coroutine and returns its operation stream.
func GoThread(body func(t *Thread)) OpStream { return workload.Go(body) }

// NewLayout starts a fresh address-space layout.
func NewLayout() *Layout { return workload.NewLayout() }

// NewRand seeds a deterministic generator.
func NewRand(seed uint64) *Rand { return workload.NewRand(seed) }

// WordAddr returns the address of word i in a region starting at base.
func WordAddr(base Addr, i int) Addr { return workload.Word(base, i) }

// RegisterWorkload adds a workload to the registry used by WorkloadByName
// and the benchmark harness.
func RegisterWorkload(w Workload) { workload.Register(w) }
