package spandex

import (
	"slices"
	"testing"
)

// badParams are FastParams geometries that NewSystem or Run cannot
// survive: unchecked, each panics (integer divide by zero, index out of
// range, an indivisible cache array, MSHR overflow, out of memory) or
// spins to the MaxTime abort. Validate must reject every one up front.
var badParams = []struct {
	name   string
	config string
	edit   func(*SystemParams)
}{
	{"SpandexLLCWays=0", "SDD", func(p *SystemParams) { p.SpandexLLCWays = 0 }},
	{"L1Ways=0", "SDD", func(p *SystemParams) { p.L1Ways = 0 }},
	{"NoCBytesPerCyc=0", "SDD", func(p *SystemParams) { p.NoCBytesPerCyc = 0 }},
	{"GPUL2Ways=0", "HMG", func(p *SystemParams) { p.GPUL2Ways = 0 }},
	{"L3Ways=0", "HMG", func(p *SystemParams) { p.L3Ways = 0 }},
	{"L1SizeBytes=0", "SDD", func(p *SystemParams) { p.L1SizeBytes = 0 }},
	{"L1SizeBytes=1000", "SDD", func(p *SystemParams) { p.L1SizeBytes = 1000 }},
	{"LLCBanks=3", "SDD", func(p *SystemParams) { p.LLCBanks = 3 }},
	{"MSHREntries=0", "SMG", func(p *SystemParams) { p.MSHREntries = 0 }},
	{"StoreBufferEntries=0", "SMG", func(p *SystemParams) { p.StoreBufferEntries = 0 }},
	{"MSHREntries<StoreBufferEntries", "SMD", func(p *SystemParams) { p.MSHREntries = 1 }},
	// Found by FuzzNewSystemParams: workloads size per-thread channels by
	// GPUCUs*WarpsPerCU, so a negative count asked for ~64 GB.
	{"WarpsPerCU=-55", "SMD", func(p *SystemParams) { p.WarpsPerCU = -55 }},
}

func TestValidateRejectsUnbuildableParams(t *testing.T) {
	for _, tc := range badParams {
		p := FastParams()
		tc.edit(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted it", tc.name)
		}
		if _, err := NewSystem(Options{ConfigName: tc.config, Params: &p}); err == nil {
			t.Errorf("%s: NewSystem(%s) accepted it", tc.name, tc.config)
		}
	}
}

// FuzzNewSystemParams varies FastParams' device list (0–8 CPU-class and
// 0–8 GPU-class devices, either class first), warps per CU, cache
// geometry, queue sizes, bank count, NoC topology, mesh width and
// bandwidth. Whatever Validate accepts must build and run the litmus
// workload to completion, final-state oracle included, on the chosen
// configuration; whatever it rejects, NewSystem must reject too. The seed
// corpus is the badParams table, FastParams itself, and CPU-only and
// GPU-only machines on every configuration.
func FuzzNewSystemParams(f *testing.F) {
	seed := func(cfg int, p SystemParams) {
		devs := p.DeviceList()
		f.Add(uint8(cfg), uint8(p.NumCPUs()), uint8(p.NumGPUs()), devs[0].Class == ClassGPU, p.WarpsPerCU,
			p.L1SizeBytes, p.L1Ways, p.SpandexLLCWays, p.LLCBanks, p.GPUL2Ways, p.L3Ways,
			p.MSHREntries, p.StoreBufferEntries, uint8(p.Topology), p.NoCMeshWidth, p.NoCBytesPerCyc)
	}
	seed(5, FastParams()) // SDD
	for _, tc := range badParams {
		p := FastParams()
		tc.edit(&p)
		seed(slices.Index(ConfigNames(), tc.config), p)
	}
	for cfg := range ConfigNames() {
		for _, class := range []DeviceClass{ClassCPU, ClassGPU} {
			p := FastParams()
			p.Devices = []DeviceSpec{{Class: class, Count: 2}}
			seed(cfg, p)
		}
	}
	gpuFirst := FastParams()
	gpuFirst.Devices = []DeviceSpec{{Class: ClassGPU, Count: 3}, {Class: ClassCPU, Count: 1}}
	gpuFirst.LLCBanks, gpuFirst.Topology, gpuFirst.NoCMeshWidth = 2, TopoRing, 3
	seed(3, gpuFirst) // SMD
	f.Fuzz(func(t *testing.T, cfg, nCPU, nGPU uint8, gpuFirst bool, warps,
		l1Bytes, l1Ways, llcWays, banks, l2Ways, l3Ways, mshr, sb int, topo uint8, meshWidth, bw int) {
		// Keep the machine small enough to build and run in milliseconds.
		if nCPU > 8 || nGPU > 8 || warps > 8 || meshWidth > 16 ||
			l1Bytes > 64<<10 || banks > 16 || mshr > 256 || sb > 256 || bw > 256 ||
			max(l1Ways, llcWays, l2Ways, l3Ways) > 64 {
			return
		}
		p := FastParams()
		p.Devices = []DeviceSpec{{Class: ClassCPU, Count: int(nCPU)}, {Class: ClassGPU, Count: int(nGPU)}}
		if gpuFirst {
			slices.Reverse(p.Devices)
		}
		p.WarpsPerCU = warps
		p.L1SizeBytes, p.L1Ways, p.SpandexLLCWays, p.LLCBanks = l1Bytes, l1Ways, llcWays, banks
		p.GPUL2Ways, p.L3Ways = l2Ways, l3Ways
		p.MSHREntries, p.StoreBufferEntries = mshr, sb
		p.Topology, p.NoCMeshWidth, p.NoCBytesPerCyc = NoCTopology(topo), meshWidth, bw
		// litmus finishes within 5M ticks on FastParams; 200x that is a hang.
		opt := Options{ConfigName: ConfigNames()[int(cfg)%len(ConfigNames())], Params: &p, Seed: 1,
			MaxTime: 1e9, Validate: true}
		if p.Validate() != nil {
			if _, err := NewSystem(opt); err == nil {
				t.Fatalf("NewSystem accepted params Validate rejects: %+v", p)
			}
			return
		}
		w, err := WorkloadByName("litmus")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(w, opt); err != nil {
			t.Fatalf("%s on %+v: %v", opt.ConfigName, p, err)
		}
	})
}
