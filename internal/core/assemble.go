package core

import (
	"fmt"

	"spandex/internal/denovo"
	"spandex/internal/device"
	"spandex/internal/gpucoh"
	"spandex/internal/mesi"
	"spandex/internal/noc"
	"spandex/internal/obs"
	"spandex/internal/proto"
	"spandex/internal/sim"
	"spandex/internal/stats"
)

// Machine assembly. These constructors are the one place a requestor L1
// is built, put behind the translation unit its protocol needs, and
// registered with the LLC banks. The simulator and the model checker both
// assemble their machines through them; they differ only in the values
// they pass.

// L1Protocol selects a requestor L1's coherence protocol.
type L1Protocol uint8

const (
	MESI L1Protocol = iota
	DeNovo
	GPUCoherence
)

// L1 is what every requestor L1 controller provides: the device-facing
// cache interface, the network handler, the checker probe and the
// observability hook.
type L1 interface {
	device.L1Cache
	noc.Handler
	DeviceProbe
	SetObserver(*obs.Recorder)
}

// L1Config describes a requestor L1 independently of its protocol.
type L1Config struct {
	Protocol    L1Protocol
	SizeBytes   int
	Ways        int
	MSHREntries int
	// BufferEntries sizes the store buffer (MESI) or the write buffer
	// (DeNovo, GPU coherence).
	BufferEntries int
	HitLatency    sim.Time
	// Parent is the backing cache, or the first of ParentBanks
	// address-interleaved banks at consecutive NodeIDs (0 or 1: a single
	// parent).
	Parent      proto.NodeID
	ParentBanks int
	// AtomicsAtLLC makes a DeNovo L1 perform atomics at the backing cache
	// (denovo.Config.AtomicsAtLLC). Other protocols ignore it.
	AtomicsAtLLC bool
}

// NewL1 builds node id's L1 controller, sending through port.
func NewL1(id proto.NodeID, eng *sim.Engine, port noc.Port, st *stats.Stats, c L1Config) L1 {
	switch c.Protocol {
	case MESI:
		return mesi.New(id, eng, port, st, mesi.Config{
			SizeBytes: c.SizeBytes, Ways: c.Ways,
			MSHREntries: c.MSHREntries, StoreBufferEntries: c.BufferEntries,
			HitLatency: c.HitLatency, ParentID: c.Parent, ParentBanks: c.ParentBanks,
		})
	case DeNovo:
		return denovo.New(id, eng, port, st, denovo.Config{
			SizeBytes: c.SizeBytes, Ways: c.Ways,
			MSHREntries: c.MSHREntries, WriteBufferEntries: c.BufferEntries,
			HitLatency: c.HitLatency, ParentID: c.Parent, ParentBanks: c.ParentBanks,
			AtomicsAtLLC: c.AtomicsAtLLC,
		})
	case GPUCoherence:
		return gpucoh.New(id, eng, port, st, gpucoh.Config{
			SizeBytes: c.SizeBytes, Ways: c.Ways,
			MSHREntries: c.MSHREntries, WriteBufferEntries: c.BufferEntries,
			HitLatency: c.HitLatency, ParentID: c.Parent, ParentBanks: c.ParentBanks,
		})
	}
	panic(fmt.Sprintf("core: unknown L1 protocol %d", c.Protocol))
}

// Requestor is one device attached to a Spandex LLC.
type Requestor struct {
	L1 L1
	// Probe is the device as the checker sees it: the MESI TU, which
	// reports the L1's ownership in Spandex terms, or the L1 itself for
	// protocols that speak Spandex natively.
	Probe DeviceProbe
}

// AttachRequestor builds node id's L1 with the LLC banks as its parent,
// behind the translation unit its protocol needs: the MESI TU, or the
// pass-through TU for DeNovo and GPU coherence, either with lookup
// latency tuLatency. It registers the device with every bank and, when
// chk is non-nil, attaches its probe to chk.
func AttachRequestor(id proto.NodeID, eng *sim.Engine, net *noc.Network, st *stats.Stats,
	banks []*LLC, chk *Checker, tuLatency sim.Time, c L1Config) Requestor {
	c.Parent, c.ParentBanks = banks[0].ID, len(banks)
	var r Requestor
	if c.Protocol == MESI {
		tu := NewMESITU(id, eng, net, st, c.Parent, tuLatency)
		tu.SetLLCBanks(len(banks))
		r.L1 = NewL1(id, eng, tu, st, c)
		tu.Bind(r.L1.(*mesi.L1))
		tu.SetChecker(chk)
		r.Probe = tu
	} else {
		tu := NewPassTU(id, eng, net, tuLatency)
		r.L1 = NewL1(id, eng, tu, st, c)
		tu.Bind(r.L1)
		r.Probe = r.L1
	}
	for _, b := range banks {
		b.RegisterDevice(id, c.Protocol == MESI)
	}
	if chk != nil {
		chk.AttachDevice(id, r.Probe)
	}
	return r
}

// NewBanks builds an address-interleaved LLC of n banks at NodeIDs
// first..first+n-1 (n = 1 is the paper's flat LLC), each with cfg's
// per-bank geometry, and installs chk and cov (either may be nil) on every
// bank. One checker and one coverage recorder span the array: lines are
// partitioned across banks, so per-line records never collide.
func NewBanks(first, memID proto.NodeID, n int, eng *sim.Engine, net *noc.Network, st *stats.Stats,
	cfg Config, chk *Checker, cov *TransitionCoverage) []*LLC {
	banks := make([]*LLC, n)
	for b := range banks {
		cfg.BankStride, cfg.BankIndex = n, b
		banks[b] = NewLLC(first+proto.NodeID(b), memID, eng, net, st, cfg)
		banks[b].SetChecker(chk)
		banks[b].SetCoverage(cov)
	}
	return banks
}
