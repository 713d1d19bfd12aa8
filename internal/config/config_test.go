package config

import (
	"testing"

	"spandex/internal/sim"
)

func TestTableVShape(t *testing.T) {
	cfgs := TableV()
	if len(cfgs) != 6 {
		t.Fatalf("Table V has %d rows, want 6", len(cfgs))
	}
	wantNames := []string{"HMG", "HMD", "SMG", "SMD", "SDG", "SDD"}
	for i, c := range cfgs {
		if c.Name != wantNames[i] {
			t.Errorf("row %d = %s, want %s", i, c.Name, wantNames[i])
		}
	}
	// Naming convention: first letter = LLC, second = CPU, third = GPU.
	for _, c := range cfgs {
		wantLLC := LLCSpandex
		if c.Name[0] == 'H' {
			wantLLC = LLCHierarchicalMESI
		}
		if c.LLC != wantLLC {
			t.Errorf("%s: LLC %v", c.Name, c.LLC)
		}
		wantCPU := CPUDeNovo
		if c.Name[1] == 'M' {
			wantCPU = CPUMESI
		}
		if c.CPU != wantCPU {
			t.Errorf("%s: CPU %v", c.Name, c.CPU)
		}
		wantGPU := GPUDeNovo
		if c.Name[2] == 'G' {
			wantGPU = GPUCoherence
		}
		if c.GPU != wantGPU {
			t.Errorf("%s: GPU %v", c.Name, c.GPU)
		}
	}
	// The hierarchical baseline never pairs with a DeNovo CPU (§IV-A).
	for _, c := range cfgs {
		if c.LLC == LLCHierarchicalMESI && c.CPU != CPUMESI {
			t.Errorf("%s: hierarchical with non-MESI CPU", c.Name)
		}
	}
}

func TestByName(t *testing.T) {
	for _, c := range TableV() {
		got, err := ByName(c.Name)
		if err != nil || got != c {
			t.Errorf("ByName(%s) = %+v, %v", c.Name, got, err)
		}
	}
	if _, err := ByName("XYZ"); err == nil {
		t.Error("ByName accepted a bogus name")
	}
}

func TestDefaultParamsMatchTableVI(t *testing.T) {
	p := DefaultParams()
	if p.CPUCores != 8 || p.GPUCUs != 16 {
		t.Errorf("core counts %d/%d, want 8/16", p.CPUCores, p.GPUCUs)
	}
	if p.L1SizeBytes != 32*1024 || p.L1Ways != 8 {
		t.Errorf("L1 geometry %d/%d", p.L1SizeBytes, p.L1Ways)
	}
	if p.SpandexLLCBytes != 8<<20 {
		t.Errorf("Spandex LLC %d, want 8MB", p.SpandexLLCBytes)
	}
	if p.GPUL2Bytes != 4<<20 || p.L3Bytes != 8<<20 {
		t.Errorf("hierarchical sizes %d/%d", p.GPUL2Bytes, p.L3Bytes)
	}
	if p.StoreBufferEntries != 128 || p.MSHREntries != 128 {
		t.Errorf("buffer entries %d/%d, want 128", p.StoreBufferEntries, p.MSHREntries)
	}
	// The flat LLC must not be slower than the hierarchy's L3 — the
	// paper's Table VI gives the 8MB Spandex LLC L2-class latency.
	if p.L2HitCycles >= p.L3HitCycles {
		t.Error("LLC latency ordering violated")
	}
}

func TestDerivedTimings(t *testing.T) {
	p := DefaultParams()
	if p.TUTicks() != sim.CPUCycles(p.TULatencyCycles) {
		t.Error("TUTicks mismatch")
	}
	// 32 B/cycle at a 500-tick cycle = ~15 ticks per byte.
	if got := p.NoCTicksPerByte(); got != sim.Time(500/32) {
		t.Errorf("NoCTicksPerByte = %d", got)
	}
}

func TestFastParamsSmaller(t *testing.T) {
	f, d := FastParams(), DefaultParams()
	if f.CPUCores >= d.CPUCores || f.GPUCUs >= d.GPUCUs {
		t.Error("FastParams not smaller in cores")
	}
	if f.SpandexLLCBytes >= d.SpandexLLCBytes {
		t.Error("FastParams not smaller in LLC")
	}
	// Still valid cache geometries (power-of-two sets).
	for _, size := range []int{f.SpandexLLCBytes, f.GPUL2Bytes, f.L3Bytes, f.L1SizeBytes} {
		sets := size / 64 / 16
		if sets > 0 && sets&(sets-1) != 0 {
			t.Errorf("size %d gives non-power-of-two sets", size)
		}
	}
}

func TestKindStrings(t *testing.T) {
	if LLCSpandex.String() != "Spandex" || LLCHierarchicalMESI.String() != "H-MESI" {
		t.Error("LLCKind strings")
	}
	if CPUMESI.String() != "MESI" || CPUDeNovo.String() != "DeNovo" {
		t.Error("CPUProto strings")
	}
	if GPUCoherence.String() != "GPU coherence" || GPUDeNovo.String() != "DeNovo" {
		t.Error("GPUProto strings")
	}
}

func TestDeviceListLegacyShape(t *testing.T) {
	p := DefaultParams()
	list := p.DeviceList()
	want := []DeviceSpec{{ClassCPU, 8}, {ClassGPU, 16}}
	if len(list) != len(want) {
		t.Fatalf("legacy DeviceList has %d specs, want %d", len(list), len(want))
	}
	for i, d := range list {
		if d != want[i] {
			t.Errorf("spec %d = %+v, want %+v", i, d, want[i])
		}
	}
	if p.NumCPUs() != 8 || p.NumGPUs() != 16 || p.NumDevices() != 24 {
		t.Errorf("counts %d/%d/%d, want 8/16/24", p.NumCPUs(), p.NumGPUs(), p.NumDevices())
	}
}

func TestDeviceListOverrideWins(t *testing.T) {
	p := DefaultParams()
	p.Devices = []DeviceSpec{{ClassGPU, 4}, {ClassCPU, 2}, {ClassGPU, 1}}
	if p.NumCPUs() != 2 || p.NumGPUs() != 5 || p.NumDevices() != 7 {
		t.Errorf("counts %d/%d/%d, want 2/5/7", p.NumCPUs(), p.NumGPUs(), p.NumDevices())
	}
	// Interleaved specs keep list order: NodeID assignment depends on it.
	if got := p.DeviceList(); got[0].Class != ClassGPU || got[1].Class != ClassCPU {
		t.Errorf("DeviceList reordered: %+v", got)
	}
}

func TestBanksFloor(t *testing.T) {
	p := DefaultParams()
	for _, tc := range []struct{ in, want int }{{0, 1}, {1, 1}, {2, 2}, {8, 8}} {
		p.LLCBanks = tc.in
		if got := p.Banks(); got != tc.want {
			t.Errorf("Banks() with LLCBanks=%d = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Errorf("default params invalid: %v", err)
	}
	if err := FastParams().Validate(); err != nil {
		t.Errorf("fast params invalid: %v", err)
	}
	if err := ScaleParams(16, 48, 0).Validate(); err != nil {
		t.Errorf("64-requestor scale params invalid: %v", err)
	}

	bad := DefaultParams()
	bad.Devices = []DeviceSpec{{ClassCPU, -1}}
	if bad.Validate() == nil {
		t.Error("negative device count accepted")
	}

	bad = DefaultParams()
	bad.Devices = []DeviceSpec{{DeviceClass(9), 1}}
	if bad.Validate() == nil {
		t.Error("unknown device class accepted")
	}

	bad = DefaultParams()
	bad.Devices = []DeviceSpec{{ClassCPU, 0}, {ClassGPU, 0}}
	if bad.Validate() == nil {
		t.Error("empty system accepted")
	}

	// The directory's sharer bitsets are 64 bits wide: 65 requestors must
	// be rejected, 64 accepted.
	at := DefaultParams()
	at.Devices = []DeviceSpec{{ClassCPU, 16}, {ClassGPU, 48}}
	if err := at.Validate(); err != nil {
		t.Errorf("64 requestors rejected: %v", err)
	}
	over := DefaultParams()
	over.Devices = []DeviceSpec{{ClassCPU, 17}, {ClassGPU, 48}}
	if over.Validate() == nil {
		t.Error("65 requestors accepted past the sharer-bitset cap")
	}

	bad = DefaultParams()
	bad.LLCBanks = -2
	if bad.Validate() == nil {
		t.Error("negative bank count accepted")
	}

	// Banking must leave each bank at least one set.
	bad = DefaultParams()
	bad.SpandexLLCBytes = 2 * 1024
	bad.LLCBanks = 4
	if bad.Validate() == nil {
		t.Error("sub-set bank capacity accepted")
	}

	bad = DefaultParams()
	bad.Topology = NoCTopology(7)
	if bad.Validate() == nil {
		t.Error("unknown topology accepted")
	}
}

func TestScaleParamsGeometry(t *testing.T) {
	for _, tc := range []struct {
		nCPU, nGPU, banks int
		wantBanks         int
	}{
		{2, 6, 0, 2},     // 8 requestors: floor of 2 banks
		{4, 12, 0, 2},    // 16 requestors: 16/8 = 2
		{8, 24, 0, 4},    // 32 requestors: 32/8 = 4
		{12, 36, 0, 6},   // 48 requestors: 48/8 = 6
		{16, 48, 0, 8},   // 64 requestors: 64/8 = 8
		{16, 48, 16, 16}, // explicit bank count wins
	} {
		p := ScaleParams(tc.nCPU, tc.nGPU, tc.banks)
		if got := p.Banks(); got != tc.wantBanks {
			t.Errorf("ScaleParams(%d,%d,%d): %d banks, want %d",
				tc.nCPU, tc.nGPU, tc.banks, got, tc.wantBanks)
		}
		if p.Topology != TopoMesh {
			t.Errorf("ScaleParams(%d,%d,%d): topology %v, want mesh", tc.nCPU, tc.nGPU, tc.banks, p.Topology)
		}
		if p.NumDevices() != tc.nCPU+tc.nGPU {
			t.Errorf("ScaleParams(%d,%d,%d): %d devices", tc.nCPU, tc.nGPU, tc.banks, p.NumDevices())
		}
		// The mesh must cover every node: devices + banks + memory.
		nodes := p.NumDevices() + p.Banks() + 1
		w := p.NoCMeshWidth
		if w*w < nodes {
			t.Errorf("ScaleParams(%d,%d,%d): %d-wide mesh cannot place %d nodes",
				tc.nCPU, tc.nGPU, tc.banks, w, nodes)
		}
		if w > 1 && (w-1)*(w-1) >= nodes {
			t.Errorf("ScaleParams(%d,%d,%d): mesh width %d not minimal for %d nodes",
				tc.nCPU, tc.nGPU, tc.banks, w, nodes)
		}
		// Per-bank capacity stays constant as banks scale.
		if p.SpandexLLCBytes/p.Banks() != 256*1024 {
			t.Errorf("ScaleParams(%d,%d,%d): per-bank bytes %d, want 256KB",
				tc.nCPU, tc.nGPU, tc.banks, p.SpandexLLCBytes/p.Banks())
		}
		if err := p.Validate(); err != nil {
			t.Errorf("ScaleParams(%d,%d,%d) invalid: %v", tc.nCPU, tc.nGPU, tc.banks, err)
		}
	}
}

func TestTopologyStrings(t *testing.T) {
	if TopoDirect.String() != "direct" || TopoMesh.String() != "mesh" || TopoRing.String() != "ring" {
		t.Error("NoCTopology strings")
	}
	if ClassCPU.String() != "cpu" || ClassGPU.String() != "gpu" {
		t.Error("DeviceClass strings")
	}
}
