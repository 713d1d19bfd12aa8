package spandex

import "testing"

// badParams are FastParams geometries that NewSystem or Run cannot
// survive: unchecked, each panics (integer divide by zero, index out of
// range, an indivisible cache array, MSHR overflow) or spins to the
// MaxTime abort. Validate must reject every one up front.
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

// FuzzNewSystemParams varies FastParams' cache geometry, queue sizes,
// bank count and NoC bandwidth. Whatever Validate accepts must build and
// run the litmus workload to completion on the chosen configuration;
// whatever it rejects, NewSystem must reject too. The seed corpus is the
// badParams table plus FastParams itself.
func FuzzNewSystemParams(f *testing.F) {
	seed := func(cfg uint8, p SystemParams) {
		f.Add(cfg, p.L1SizeBytes, p.L1Ways, p.SpandexLLCWays, p.LLCBanks, p.GPUL2Ways, p.L3Ways,
			p.MSHREntries, p.StoreBufferEntries, p.NoCBytesPerCyc)
	}
	seed(5, FastParams()) // SDD
	for _, tc := range badParams {
		p := FastParams()
		tc.edit(&p)
		for i, name := range ConfigNames() {
			if name == tc.config {
				seed(uint8(i), p)
			}
		}
	}
	f.Fuzz(func(t *testing.T, cfg uint8, l1Bytes, l1Ways, llcWays, banks, l2Ways, l3Ways, mshr, sb, bw int) {
		// Keep the machine small enough to build and run in milliseconds.
		if l1Bytes > 64<<10 || banks > 16 || mshr > 256 || sb > 256 || bw > 256 ||
			max(l1Ways, llcWays, l2Ways, l3Ways) > 64 {
			return
		}
		p := FastParams()
		p.L1SizeBytes, p.L1Ways, p.SpandexLLCWays, p.LLCBanks = l1Bytes, l1Ways, llcWays, banks
		p.GPUL2Ways, p.L3Ways = l2Ways, l3Ways
		p.MSHREntries, p.StoreBufferEntries, p.NoCBytesPerCyc = mshr, sb, bw
		if p.LLCBanks > 1 {
			p.Topology = TopoMesh
		}
		// litmus finishes within 5M ticks on FastParams; 200x that is a hang.
		opt := Options{ConfigName: ConfigNames()[int(cfg)%len(ConfigNames())], Params: &p, Seed: 1,
			MaxTime: 1e9}
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
