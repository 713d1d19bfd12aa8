// Package config defines the six evaluated cache configurations (paper
// Table V) and the simulated system parameters (paper Table VI).
package config

import (
	"fmt"

	"spandex/internal/cache"
	"spandex/internal/sim"
)

// LLCKind selects the last-level organization.
type LLCKind uint8

const (
	// LLCSpandex is the flat Spandex LLC (this paper's design).
	LLCSpandex LLCKind = iota
	// LLCHierarchicalMESI is the baseline: MESI L3 directory with an
	// intermediate GPU L2.
	LLCHierarchicalMESI
)

func (k LLCKind) String() string {
	if k == LLCSpandex {
		return "Spandex"
	}
	return "H-MESI"
}

// CPUProto selects the CPU L1 protocol.
type CPUProto uint8

const (
	CPUMESI CPUProto = iota
	CPUDeNovo
)

func (p CPUProto) String() string {
	if p == CPUMESI {
		return "MESI"
	}
	return "DeNovo"
}

// GPUProto selects the GPU L1 protocol.
type GPUProto uint8

const (
	GPUCoherence GPUProto = iota
	GPUDeNovo
)

func (p GPUProto) String() string {
	if p == GPUCoherence {
		return "GPU coherence"
	}
	return "DeNovo"
}

// CacheConfig is one row of Table V.
type CacheConfig struct {
	Name string
	LLC  LLCKind
	CPU  CPUProto
	GPU  GPUProto
}

// TableV returns the six evaluated configurations (paper Table V). The
// hierarchical MESI LLC only supports MESI CPU caches; Spandex supports
// MESI or DeNovo CPU caches and GPU coherence or DeNovo GPU caches.
func TableV() []CacheConfig {
	return []CacheConfig{
		{"HMG", LLCHierarchicalMESI, CPUMESI, GPUCoherence},
		{"HMD", LLCHierarchicalMESI, CPUMESI, GPUDeNovo},
		{"SMG", LLCSpandex, CPUMESI, GPUCoherence},
		{"SMD", LLCSpandex, CPUMESI, GPUDeNovo},
		{"SDG", LLCSpandex, CPUDeNovo, GPUCoherence},
		{"SDD", LLCSpandex, CPUDeNovo, GPUDeNovo},
	}
}

// ByName returns the named Table V configuration.
func ByName(name string) (CacheConfig, error) {
	for _, c := range TableV() {
		if c.Name == name {
			return c, nil
		}
	}
	return CacheConfig{}, fmt.Errorf("config: unknown configuration %q", name)
}

// DeviceClass names the kind of requestor a DeviceSpec instantiates. The
// L1 protocol each class speaks still comes from the CacheConfig (Table V
// column): every CPU-class device gets the configured CPU protocol, every
// GPU-class device the configured GPU protocol.
type DeviceClass uint8

const (
	// ClassCPU is a latency-sensitive core running one hardware thread.
	ClassCPU DeviceClass = iota
	// ClassGPU is a throughput CU running WarpsPerCU interleaved warps.
	ClassGPU
)

func (c DeviceClass) String() string {
	if c == ClassCPU {
		return "cpu"
	}
	return "gpu"
}

// DeviceSpec is one homogeneous group of requestor devices. A system's
// device list is a sequence of specs; NodeIDs are assigned in list order,
// so [{CPU,8},{GPU,16}] reproduces the paper's fixed layout exactly.
type DeviceSpec struct {
	Class DeviceClass
	Count int
}

// NoCTopology selects the interconnect model (see internal/noc).
type NoCTopology uint8

const (
	// TopoDirect is the legacy point-to-point model: distance-dependent
	// latency with per-endpoint link serialization only. The paper's 9×6
	// evaluation matrix runs on this model; its results are bit-stable.
	TopoDirect NoCTopology = iota
	// TopoMesh is a switched 2D mesh: XY (dimension-ordered) routing with
	// per-link occupancy, so through-traffic contends at every hop.
	TopoMesh
	// TopoRing is a switched bidirectional ring: shortest-direction
	// routing with per-link occupancy.
	TopoRing
)

func (t NoCTopology) String() string {
	switch t {
	case TopoDirect:
		return "direct"
	case TopoMesh:
		return "mesh"
	case TopoRing:
		return "ring"
	}
	return fmt.Sprintf("NoCTopology(%d)", uint8(t))
}

// SystemParams mirrors the paper's Table VI. The published table's latency
// values were corrupted in the source text, so representative 2018-era
// values are used; only their ratios matter for the normalized results the
// paper reports (see DESIGN.md §2).
type SystemParams struct {
	CPUCores   int
	GPUCUs     int
	WarpsPerCU int

	// Devices generalizes the fixed CPUCores+GPUCUs pair to an arbitrary
	// requestor list. When nil (every legacy configuration), the list is
	// exactly [{ClassCPU, CPUCores}, {ClassGPU, GPUCUs}] — byte-identical
	// behaviour to the pre-N-device simulator. When non-nil it wins and
	// CPUCores/GPUCUs are ignored.
	Devices []DeviceSpec

	// LLCBanks shards the Spandex LLC into an address-interleaved array of
	// banks, each with its own directory, MSHRs and request queue on its
	// own NoC node. 0 or 1 means the paper's single flat LLC. Lines map to
	// banks with proto.BankOf; capacity is split evenly across banks. The
	// hierarchical baseline is never banked.
	LLCBanks int

	// Topology selects the interconnect model. TopoDirect (zero value) is
	// the legacy point-to-point model every paper figure uses.
	Topology NoCTopology

	// L1 geometry (both CPU and GPU, paper: 32 KB, 8 banks, 8-way).
	L1SizeBytes int
	L1Ways      int

	// Spandex LLC: 8 MB; hierarchical: 4 MB GPU L2 + 8 MB L3.
	SpandexLLCBytes int
	SpandexLLCWays  int
	GPUL2Bytes      int
	GPUL2Ways       int
	L3Bytes         int
	L3Ways          int

	StoreBufferEntries int
	MSHREntries        int

	// Latencies, in CPU cycles unless noted.
	L2HitCycles      uint64
	L3HitCycles      uint64
	MemLatencyCycles uint64
	TULatencyCycles  uint64

	// Interconnect.
	NoCHopCycles   uint64
	NoCBytesPerCyc int
	NoCMeshWidth   int
}

// DefaultParams returns the Table VI configuration.
func DefaultParams() SystemParams {
	return SystemParams{
		CPUCores:   8,
		GPUCUs:     16,
		WarpsPerCU: 4,

		L1SizeBytes: 32 * 1024,
		L1Ways:      8,

		SpandexLLCBytes: 8 * 1024 * 1024,
		SpandexLLCWays:  16,
		GPUL2Bytes:      4 * 1024 * 1024,
		GPUL2Ways:       16,
		L3Bytes:         8 * 1024 * 1024,
		L3Ways:          16,

		StoreBufferEntries: 128,
		MSHREntries:        128,

		L2HitCycles:      24,
		L3HitCycles:      48,
		MemLatencyCycles: 160,
		TULatencyCycles:  1,

		NoCHopCycles:   2,
		NoCBytesPerCyc: 32,
		NoCMeshWidth:   6,
	}
}

// FastParams shrinks the system for unit tests: fewer cores, small caches.
func FastParams() SystemParams {
	p := DefaultParams()
	p.CPUCores = 2
	p.GPUCUs = 2
	p.WarpsPerCU = 2
	p.SpandexLLCBytes = 256 * 1024
	p.GPUL2Bytes = 128 * 1024
	p.L3Bytes = 256 * 1024
	return p
}

// DeviceList resolves the effective device list: Devices when set,
// otherwise the legacy [{CPU, CPUCores}, {GPU, GPUCUs}] pair.
func (p SystemParams) DeviceList() []DeviceSpec {
	if len(p.Devices) > 0 {
		return p.Devices
	}
	return []DeviceSpec{{ClassCPU, p.CPUCores}, {ClassGPU, p.GPUCUs}}
}

// NumCPUs counts CPU-class devices across the effective device list.
func (p SystemParams) NumCPUs() int { return p.countClass(ClassCPU) }

// NumGPUs counts GPU-class devices across the effective device list.
func (p SystemParams) NumGPUs() int { return p.countClass(ClassGPU) }

func (p SystemParams) countClass(c DeviceClass) int {
	n := 0
	for _, d := range p.DeviceList() {
		if d.Class == c {
			n += d.Count
		}
	}
	return n
}

// NumDevices counts every requestor device.
func (p SystemParams) NumDevices() int {
	n := 0
	for _, d := range p.DeviceList() {
		n += d.Count
	}
	return n
}

// Banks returns the effective Spandex LLC bank count (at least 1).
func (p SystemParams) Banks() int {
	if p.LLCBanks <= 1 {
		return 1
	}
	return p.LLCBanks
}

// Validate rejects inconsistent parameter combinations before a System is
// assembled from them.
func (p SystemParams) Validate() error {
	for i, d := range p.DeviceList() {
		if d.Count < 0 {
			return fmt.Errorf("config: device spec %d has negative count %d", i, d.Count)
		}
		if d.Class != ClassCPU && d.Class != ClassGPU {
			return fmt.Errorf("config: device spec %d has unknown class %d", i, d.Class)
		}
	}
	if p.NumDevices() == 0 {
		return fmt.Errorf("config: no requestor devices")
	}
	if n := p.NumDevices(); n > 64 {
		return fmt.Errorf("config: %d requestor devices exceed the 64-device directory sharer-bitset cap", n)
	}
	if p.LLCBanks < 0 {
		return fmt.Errorf("config: negative LLC bank count %d", p.LLCBanks)
	}
	// Every cache array the system may build, Spandex or hierarchical.
	for _, a := range []struct {
		name        string
		bytes, ways int
	}{
		{"L1", p.L1SizeBytes, p.L1Ways},
		{"Spandex LLC bank", p.SpandexLLCBytes / p.Banks(), p.SpandexLLCWays},
		{"GPU L2", p.GPUL2Bytes, p.GPUL2Ways},
		{"L3", p.L3Bytes, p.L3Ways},
	} {
		if err := cache.CheckGeometry(a.bytes, a.ways); err != nil {
			return fmt.Errorf("config: %s (%d bytes, %d ways): %w", a.name, a.bytes, a.ways, err)
		}
	}
	if p.MSHREntries < 1 || p.StoreBufferEntries < 1 {
		return fmt.Errorf("config: %d MSHR and %d store-buffer entries; each needs at least 1",
			p.MSHREntries, p.StoreBufferEntries)
	}
	// A MESI L1 release drains every buffered line into its own MSHR
	// without a capacity check.
	if p.MSHREntries < p.StoreBufferEntries {
		return fmt.Errorf("config: %d MSHR entries cannot hold a drained %d-entry store buffer",
			p.MSHREntries, p.StoreBufferEntries)
	}
	if p.NoCBytesPerCyc < 1 {
		return fmt.Errorf("config: NoC bandwidth %d bytes/cycle; needs at least 1", p.NoCBytesPerCyc)
	}
	if p.Topology > TopoRing {
		return fmt.Errorf("config: unknown NoC topology %d", p.Topology)
	}
	return nil
}

// ScaleParams builds a scaled system: nCPU CPU-class and nGPU GPU-class
// requestors on a 2D-mesh NoC over a bank-sharded LLC. Bank count defaults
// to one bank per 8 requestors (minimum 2 — a scaled system always
// exercises the distributed directory) when banks <= 0. Per-device cache
// geometry is kept small so very large device counts stay simulable.
func ScaleParams(nCPU, nGPU, banks int) SystemParams {
	p := DefaultParams()
	p.Devices = []DeviceSpec{{ClassCPU, nCPU}, {ClassGPU, nGPU}}
	p.CPUCores, p.GPUCUs = nCPU, nGPU // kept coherent for display only
	p.WarpsPerCU = 2
	if banks <= 0 {
		banks = (nCPU + nGPU) / 8
		if banks < 2 {
			banks = 2
		}
	}
	p.LLCBanks = banks
	p.Topology = TopoMesh
	// Mesh wide enough to keep the layout square-ish: devices + banks + mem.
	n := nCPU + nGPU + banks + 1
	w := 1
	for w*w < n {
		w++
	}
	p.NoCMeshWidth = w
	p.L1SizeBytes = 16 * 1024
	p.SpandexLLCBytes = 256 * 1024 * banks
	return p
}

// TUTicks converts the TU latency to ticks.
func (p SystemParams) TUTicks() sim.Time { return sim.CPUCycles(p.TULatencyCycles) }

// NoCTicksPerByte converts link bandwidth to serialization cost per byte.
func (p SystemParams) NoCTicksPerByte() sim.Time {
	return sim.Time(uint64(sim.CPUCycle) / uint64(p.NoCBytesPerCyc))
}
