// Package spandex is a simulator-backed reproduction of "Spandex: A
// Flexible Interface for Efficient Heterogeneous Coherence" (Alsop,
// Sinclair, Adve — ISCA 2018).
//
// The package assembles heterogeneous CPU-GPU systems in any of the
// paper's six cache configurations (Table V): a flat Spandex LLC directly
// interfacing MESI, DeNovo and GPU-coherence caches through per-device
// translation units, or the conventional hierarchical MESI baseline (CPU
// MESI L1s and an intermediate GPU L2 under a MESI L3 directory). Systems
// execute workload programs — the paper's microbenchmarks and
// collaborative applications live in internal/workload — on a
// deterministic discrete-event simulator, reporting execution time and
// network traffic broken down by request class exactly as the paper's
// Figures 2 and 3 do.
//
// Basic use:
//
//	w, _ := spandex.WorkloadByName("pr")
//	res, err := spandex.Run(w, spandex.Options{ConfigName: "SDD"})
//	fmt.Println(res.ExecTime, res.Traffic.TotalBytes(false))
package spandex

import (
	"fmt"

	"spandex/internal/config"
	"spandex/internal/core"
	"spandex/internal/device"
	"spandex/internal/dram"
	"spandex/internal/hmesi"
	"spandex/internal/memaddr"
	"spandex/internal/noc"
	"spandex/internal/obs"
	"spandex/internal/proto"
	"spandex/internal/sim"
	"spandex/internal/stats"
	"spandex/internal/workload"
)

// Re-exported configuration types.
type (
	// CacheConfig selects the LLC organization and L1 protocols (Table V).
	CacheConfig = config.CacheConfig
	// SystemParams sets sizes and latencies (Table VI).
	SystemParams = config.SystemParams
	// DeviceSpec is one homogeneous group of requestor devices
	// (SystemParams.Devices).
	DeviceSpec = config.DeviceSpec
	// DeviceClass names the kind of requestor a DeviceSpec instantiates.
	DeviceClass = config.DeviceClass
	// NoCTopology selects the interconnect model (SystemParams.Topology).
	NoCTopology = config.NoCTopology
	// Workload builds runnable programs.
	Workload = workload.Workload
	// Program is a built per-thread program.
	Program = workload.Program
	// Machine describes the simulated machine shape.
	Machine = workload.Machine

	// TraceEvent is one observability event (internal/obs): an operation
	// issue/completion, a message send/delivery, an LLC block/unblock/
	// forward, or an occupancy sample.
	TraceEvent = obs.Event
	// TraceEventSink consumes observability events as the simulation runs.
	TraceEventSink = obs.Sink
	// LatencyReport is the per-run latency attribution (Result.Latency).
	LatencyReport = obs.LatencyReport
)

// Configurations returns the paper's six cache configurations.
func Configurations() []CacheConfig { return config.TableV() }

// ConfigByName resolves a Table V configuration name (HMG … SDD).
func ConfigByName(name string) (CacheConfig, error) { return config.ByName(name) }

// DefaultParams returns the Table VI system parameters.
func DefaultParams() SystemParams { return config.DefaultParams() }

// FastParams returns a shrunken system for quick tests.
func FastParams() SystemParams { return config.FastParams() }

// Re-exported device-class and topology selectors.
const (
	ClassCPU = config.ClassCPU
	ClassGPU = config.ClassGPU

	TopoDirect = config.TopoDirect
	TopoMesh   = config.TopoMesh
	TopoRing   = config.TopoRing
)

// ScaleParams builds a scaled system: nCPU CPU-class and nGPU GPU-class
// requestors on a 2D-mesh NoC over a bank-sharded LLC (banks <= 0 picks
// one bank per 8 requestors, minimum 2).
func ScaleParams(nCPU, nGPU, banks int) SystemParams {
	return config.ScaleParams(nCPU, nGPU, banks)
}

// WorkloadByName resolves a registered workload ("indirection", "bc", …).
func WorkloadByName(name string) (Workload, error) { return workload.ByName(name) }

// WorkloadNames lists all registered workloads.
func WorkloadNames() []string { return workload.Names() }

// Options configures a run.
type Options struct {
	// Config selects the cache configuration; ConfigName is a convenient
	// alternative and wins when non-empty.
	Config     CacheConfig
	ConfigName string
	// Params defaults to DefaultParams().
	Params *SystemParams
	// Seed feeds the workload's deterministic PRNG.
	Seed uint64
	// CheckInvariants enables the Spandex LLC coherence checker and the
	// post-run quiescence audit (Spandex configurations only).
	CheckInvariants bool
	// CheckEveryTransition additionally audits SWMR single-owner and
	// owned/sharer disjointness on every LLC state change, and the MESI
	// TUs' transient bookkeeping after every message. Implies
	// CheckInvariants. Violations are collected into Result.Violations
	// (and fail the run) instead of panicking mid-simulation, so a sweep
	// reports them per-point. Measured cost is a few percent of CPU time
	// on the headline matrix; see EXPERIMENTS.md.
	CheckEveryTransition bool
	// ReqSOption2 switches the Spandex LLC to Table III's ReqS option (2)
	// (treat reads as ReqV; requestors downgrade after reading). The
	// evaluation default is options (1)/(3); this knob drives the
	// ReqS-policy ablation.
	ReqSOption2 bool
	// RecordTransitions piggy-backs a (state, message) coverage recorder on
	// the LLC's transition auditing: every pair the LLC processes is
	// counted into Result.Transitions, the dynamic half of the
	// transition-graph cross-check (cmd/spandex-transgraph -diff). Also
	// enabled implicitly by CheckEveryTransition.
	RecordTransitions bool
	// Validate runs the workload's final-state oracle after the run.
	Validate bool
	// MaxTime aborts runs that exceed this simulated time (0 = 100 ms).
	MaxTime sim.Time
	// TraceLatency enables request-lifecycle tracking: every core/CU memory
	// operation gets a request id threaded through the protocol messages it
	// generates, and the per-phase wait breakdown (network, LLC, blocked,
	// owner indirection, DRAM) is aggregated into Result.Latency. Tracing
	// observes and never perturbs: Result.Fingerprint is bit-identical with
	// every Trace* knob on or off (test-enforced).
	TraceLatency bool
	// TraceOccupancy samples L1 MSHR and LLC request-queue/transaction-table
	// occupancy into Result.Metrics.Occupancy time series. It turns on the
	// metrics engine's LLC collector (MetricsOptions.LLC), on top of
	// whatever Metrics selects; the caller's MetricsOptions is not modified.
	TraceOccupancy bool
	// TraceSink, when non-nil, receives every observability event as the
	// simulation runs (see NewJSONLTraceSink and NewChromeTraceSink for
	// ready-made exporters, and TraceFunc for a callback). It is the only
	// way to attach a sink: install it here, at construction. Independent
	// of TraceLatency/TraceOccupancy.
	TraceSink TraceEventSink
	// Metrics, when non-nil, enables the system-level metrics engine:
	// deterministic cycle-bucketed time series (NoC utilization and
	// queuing, LLC occupancy and contention, DRAM bandwidth and row
	// counts) plus the per-line sharing history behind the heatmaps, all
	// aggregated into Result.Metrics. Use AllMetrics() to enable every
	// collector with default sizing. Like tracing, metrics observe and
	// never perturb: Result.Fingerprint is bit-identical with any
	// combination of collectors on or off (test-enforced).
	Metrics *MetricsOptions
}

// Result reports one run's measurements.
type Result struct {
	Config   string
	Workload string
	// ExecTime is when the last thread finished.
	ExecTime sim.Time
	// Traffic is interconnect traffic by request class (Figures 2 and 3).
	Traffic stats.Traffic
	// Counters carries protocol-internal event counts.
	Counters map[string]uint64
	// Ops is the total device operations executed.
	Ops uint64
	// Events is the number of engine events fired during the run. It is a
	// throughput measure (the bench gate's events/sec), not simulated
	// behaviour, so it is excluded from Fingerprint: pooling and event-
	// structure changes in the engine may alter it while the simulated
	// machine stays bit-identical.
	Events uint64
	// MemHash is a deterministic hash of the final DRAM image (captured
	// at quiescence, before any validation reads). Together with ExecTime,
	// Traffic, Counters and Ops it fingerprints a run for determinism
	// verification; see Result.Fingerprint.
	MemHash uint64
	// Violations lists every coherence invariant the checker saw broken
	// during the run (CheckInvariants/CheckEveryTransition), each carrying
	// the cycle, line address and (LLC state, message) context needed to
	// reproduce it standalone. A non-empty list also makes Run return an
	// error; the list is carried here so callers can report each violation,
	// not just the first. The list is capped (core.DefaultMaxViolations);
	// ViolationsDropped counts the overflow.
	Violations []Violation
	// ViolationsDropped counts violations discarded past the cap.
	ViolationsDropped int
	// Transitions maps "state|msg" to the number of times the LLC
	// processed that (state, message) pair (Options.RecordTransitions).
	Transitions map[string]uint64
	// Latency is the request-latency attribution (Options.TraceLatency).
	// It is deliberately excluded from Fingerprint: the
	// fingerprint hashes simulated behaviour, and tracing must not change
	// it.
	Latency *LatencyReport
	// Metrics is the system-level metrics report (Options.Metrics): time
	// series, contention telemetry and the per-line sharing history. Like
	// Latency it is excluded from Fingerprint — metrics observe simulated
	// behaviour, they are not part of it.
	Metrics *MetricsReport
}

// Violation is one failed coherence invariant with reproduction context.
type Violation = core.Violation

// ExecMillis returns the execution time in milliseconds of simulated time.
func (r Result) ExecMillis() float64 { return float64(r.ExecTime) / 1e9 }

// System is an assembled simulated machine. Most callers use Run; building
// a System directly allows custom devices and instrumentation (see
// examples/customworkload and examples/protocoltrace).
type System struct {
	Engine *sim.Engine
	Stats  *stats.Stats
	Net    *noc.Network
	Mem    *dram.Memory

	cfg    CacheConfig
	params SystemParams

	// Spandex organization. LLC is bank 0; Banks lists every bank of the
	// address-interleaved LLC array (length 1 for the paper's flat LLC).
	LLC      *core.LLC
	Banks    []*core.LLC
	Checker  *core.Checker
	Coverage *core.TransitionCoverage
	// Hierarchical organization.
	Dir   *hmesi.Directory
	GPUL2 *hmesi.GPUL2

	CPUL1s []core.L1
	GPUL1s []core.L1

	// cpuIDs/gpuIDs are the NodeIDs of the CPU- and GPU-class devices in
	// construction order (CPUL1s[i] is node cpuIDs[i]); with a legacy
	// device list these are 0..CPUCores-1 and CPUCores..CPUCores+GPUCUs-1.
	cpuIDs []proto.NodeID
	gpuIDs []proto.NodeID

	cores    []*device.CPUCore
	cus      []*device.GPUCU
	doneAt   sim.Time
	liveDevs int

	obs *obs.Recorder
}

// NewSystem assembles a machine for the given options (without a program).
func NewSystem(opt Options) (*System, error) {
	cfg := opt.Config
	if opt.ConfigName != "" {
		c, err := config.ByName(opt.ConfigName)
		if err != nil {
			return nil, err
		}
		cfg = c
	}
	params := config.DefaultParams()
	if opt.Params != nil {
		params = *opt.Params
	}
	if cfg.LLC == config.LLCHierarchicalMESI && cfg.CPU != config.CPUMESI {
		return nil, fmt.Errorf("spandex: the hierarchical MESI LLC only supports MESI CPU caches (paper §IV-A)")
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}

	s := &System{
		Engine: sim.New(),
		Stats:  stats.New(),
		cfg:    cfg,
		params: params,
	}

	// NodeID layout: the devices in DeviceList order, then the coherence
	// point (the LLC banks, or the hierarchical GPU L2 and L3 directory),
	// then memory.
	first := proto.NodeID(params.NumDevices())
	memID := first + proto.NodeID(params.Banks())
	if cfg.LLC == config.LLCHierarchicalMESI {
		memID = first + 2 // never banked
	}
	s.Net = noc.New(s.Engine, s.Stats, noc.Config{
		HopLatency:   sim.CPUCycles(params.NoCHopCycles),
		TicksPerByte: params.NoCTicksPerByte(),
		MeshWidth:    params.NoCMeshWidth,
		Topology:     params.Topology,
	}, int(memID)+1)
	s.Mem = dram.New(memID, s.Engine, s.Net, sim.CPUCycles(params.MemLatencyCycles))

	if cfg.LLC == config.LLCHierarchicalMESI {
		s.buildHierarchical(first, memID)
	} else {
		s.buildSpandex(opt, first, memID)
	}
	id := proto.NodeID(0)
	for _, spec := range params.DeviceList() {
		for k := 0; k < spec.Count; k++ {
			l1 := s.attach(id, spec.Class)
			if spec.Class == config.ClassCPU {
				s.CPUL1s, s.cpuIDs = append(s.CPUL1s, l1), append(s.cpuIDs, id)
			} else {
				s.GPUL1s, s.gpuIDs = append(s.GPUL1s, l1), append(s.gpuIDs, id)
			}
			id++
		}
	}
	if opt.TraceLatency || opt.TraceOccupancy || opt.TraceSink != nil || opt.Metrics != nil {
		s.installObserver(opt)
	}
	return s, nil
}

// installObserver creates the recorder the options ask for and threads it
// through the NoC, the LLC and every L1. Cores and CUs attach later
// (Attach). It runs once, from NewSystem: observation is configured only
// through Options. The recorder is purely passive: it never schedules
// events, touches stats, or alters any message, so an instrumented run is
// cycle-identical to a bare one.
func (s *System) installObserver(opt Options) {
	cfg := obs.Config{Latency: opt.TraceLatency, Sink: opt.TraceSink, MemID: s.Mem.ID}
	if opt.Metrics != nil || opt.TraceOccupancy {
		var mc MetricsOptions
		if opt.Metrics != nil {
			mc = *opt.Metrics
		}
		mc.LLC = mc.LLC || opt.TraceOccupancy
		cfg.Metrics = obs.NewMetrics(mc)
	}
	if s.Dir != nil {
		// GPU L2 and the L3 directory both act as "the LLC" for phase
		// attribution.
		cfg.LLCNodes = []proto.NodeID{s.GPUL2.ID, s.Dir.ID}
	}
	for _, bank := range s.Banks {
		cfg.LLCNodes = append(cfg.LLCNodes, bank.ID)
	}
	s.obs = obs.New(cfg)
	if cfg.Sink != nil {
		s.nameNodes(cfg.Sink)
	}
	if cfg.Metrics != nil {
		s.nameNodes(cfg.Metrics)
	}
	s.Net.SetObserver(s.obs)
	s.Mem.SetObserver(s.obs)
	for _, bank := range s.Banks {
		bank.SetObserver(s.obs)
	}
	for _, l1s := range [][]core.L1{s.CPUL1s, s.GPUL1s} {
		for _, l1 := range l1s {
			l1.SetObserver(s.obs)
		}
	}
}

// l1Config describes the L1 of a class-c device: the protocol Table V
// gives its class, the shared Table VI geometry, and its class's clock
// as hit latency.
func (s *System) l1Config(c config.DeviceClass) core.L1Config {
	p := s.params
	l1 := core.L1Config{
		Protocol:  core.DeNovo,
		SizeBytes: p.L1SizeBytes, Ways: p.L1Ways,
		MSHREntries: p.MSHREntries, BufferEntries: p.StoreBufferEntries,
		HitLatency: sim.CPUCycle,
	}
	switch {
	case c == config.ClassGPU:
		l1.HitLatency = sim.GPUCycle
		if s.cfg.GPU == config.GPUCoherence {
			l1.Protocol = core.GPUCoherence
		}
	case s.cfg.CPU == config.CPUMESI:
		l1.Protocol = core.MESI
	default:
		// SDG: CPU atomics are performed at the LLC (ReqWT+data) to match
		// the GPU-coherence strategy and avoid blocking states on
		// inter-device synchronization (paper §IV-A).
		l1.AtomicsAtLLC = s.cfg.GPU == config.GPUCoherence
	}
	return l1
}

// buildSpandex builds the banked Spandex LLC at NodeIDs first...
func (s *System) buildSpandex(opt Options, first, memID proto.NodeID) {
	p := s.params
	if opt.CheckInvariants || opt.CheckEveryTransition {
		s.Checker = core.NewChecker()
		// Collect instead of panicking so violations reach Result.Violations
		// with the run's measurements intact.
		s.Checker.Collect = true
		s.Checker.CheckEveryTransition = opt.CheckEveryTransition
	}
	if opt.RecordTransitions || opt.CheckEveryTransition {
		s.Coverage = core.NewTransitionCoverage()
	}
	banks := p.Banks()
	s.Banks = core.NewBanks(first, memID, banks, s.Engine, s.Net, s.Stats, core.Config{
		SizeBytes:     p.SpandexLLCBytes / banks,
		Ways:          p.SpandexLLCWays,
		AccessLatency: sim.CPUCycles(p.L2HitCycles),
		ReqSOption2:   opt.ReqSOption2,
	}, s.Checker, s.Coverage)
	s.LLC = s.Banks[0]
}

// buildHierarchical builds the GPU L2 (at first) and the L3 directory.
func (s *System) buildHierarchical(first, memID proto.NodeID) {
	p := s.params
	l2ID, dirID := first, first+1
	s.Dir = hmesi.NewDirectory(dirID, memID, s.Engine, s.Net, s.Stats, hmesi.DirConfig{
		SizeBytes:     p.L3Bytes,
		Ways:          p.L3Ways,
		AccessLatency: sim.CPUCycles(p.L3HitCycles),
	})
	s.GPUL2 = hmesi.NewGPUL2(l2ID, s.Engine, s.Net, s.Stats, hmesi.L2Config{
		SizeBytes:     p.GPUL2Bytes,
		Ways:          p.GPUL2Ways,
		AccessLatency: sim.CPUCycles(p.L2HitCycles),
		ParentID:      dirID,
	})
	s.Dir.RegisterDevice(l2ID)
}

// attach builds node id's L1 and wires it to the coherence point: through
// a translation unit to every Spandex LLC bank, or, in the hierarchical
// baseline, under the L3 directory (CPUs) or the GPU L2 (GPUs).
func (s *System) attach(id proto.NodeID, c config.DeviceClass) core.L1 {
	l1c := s.l1Config(c)
	if s.Dir == nil {
		return core.AttachRequestor(id, s.Engine, s.Net, s.Stats, s.Banks, s.Checker, s.params.TUTicks(), l1c).L1
	}
	if c == config.ClassCPU {
		l1c.Parent = s.Dir.ID
		s.Dir.RegisterDevice(id)
	} else {
		l1c.Parent = s.GPUL2.ID
		s.GPUL2.RegisterChild(id)
	}
	l1 := core.NewL1(id, s.Engine, s.Net.PortFor(id), s.Stats, l1c)
	s.Net.Register(id, l1)
	return l1
}

// Machine reports the shape workloads should be built for.
func (s *System) Machine() Machine {
	return Machine{
		CPUThreads: s.params.NumCPUs(),
		GPUCUs:     s.params.NumGPUs(),
		WarpsPerCU: s.params.WarpsPerCU,
		L1Bytes:    s.params.L1SizeBytes,
	}
}

// Attach binds a program's op streams to the machine's cores and seeds
// its initial data into memory.
func (s *System) Attach(prog *Program) error {
	if len(prog.CPU) > len(s.CPUL1s) || len(prog.GPU) > len(s.GPUL1s) {
		return fmt.Errorf("spandex: program shaped for a larger machine")
	}
	for _, init := range prog.Init {
		line := s.Mem.Peek(init.Addr.Line())
		line[init.Addr.WordIndex()] = init.Val
		s.Mem.Poke(init.Addr.Line(), line)
	}
	done := func() {
		s.liveDevs--
		if s.liveDevs == 0 {
			s.doneAt = s.Engine.Now()
		}
	}
	for i, stream := range prog.CPU {
		if stream == nil {
			continue
		}
		s.liveDevs++
		c := device.NewCPUCore(fmt.Sprintf("cpu%d", i), s.Engine, s.CPUL1s[i], stream, done)
		if s.obs != nil {
			c.SetObserver(s.obs, s.cpuIDs[i])
		}
		s.cores = append(s.cores, c)
	}
	for i, warps := range prog.GPU {
		var streams []device.OpStream
		for _, w := range warps {
			if w != nil {
				streams = append(streams, w)
			}
		}
		if len(streams) == 0 {
			continue
		}
		s.liveDevs++
		cu := device.NewGPUCU(fmt.Sprintf("cu%d", i), s.Engine, s.GPUL1s[i], streams, done)
		if s.obs != nil {
			cu.SetObserver(s.obs, s.gpuIDs[i])
		}
		s.cus = append(s.cus, cu)
	}
	return nil
}

// Run executes the attached program to completion and returns measurements.
func (s *System) Run(maxTime sim.Time) (Result, error) {
	if maxTime == 0 {
		maxTime = 100_000_000_000 // 100 ms of simulated time
	}
	for _, c := range s.cores {
		c.Start()
	}
	for _, cu := range s.cus {
		cu.Start()
	}
	if !s.Engine.RunUntil(maxTime) {
		stuck := ""
		for _, bank := range s.Banks {
			if r := bank.StuckReport(); r != "" {
				stuck += "; stuck LLC transactions:\n" + r
			}
		}
		return Result{}, fmt.Errorf("spandex: %s run exceeded %d ticks (possible deadlock or undersized MaxTime); %d threads unfinished%s",
			s.cfg.Name, maxTime, s.liveDevs, stuck)
	}
	if s.liveDevs != 0 {
		return Result{}, fmt.Errorf("spandex: event queue drained with %d threads unfinished (protocol deadlock)", s.liveDevs)
	}
	if s.Checker != nil {
		for _, bank := range s.Banks {
			if err := s.Checker.CheckQuiescent(bank); err != nil {
				return Result{}, err
			}
		}
	}
	var ops uint64
	for _, c := range s.cores {
		ops += c.Ops()
	}
	for _, cu := range s.cus {
		ops += cu.Ops()
	}
	counters := make(map[string]uint64, len(s.Stats.Counters))
	for k, v := range s.Stats.Counters {
		counters[k] = *v
	}
	res := Result{
		Config:   s.cfg.Name,
		ExecTime: s.doneAt,
		Traffic:  s.Stats.Traffic,
		Counters: counters,
		Ops:      ops,
		Events:   s.Engine.Fired(),
		MemHash:  s.Mem.Fingerprint(),
	}
	if s.Coverage != nil {
		res.Transitions = s.Coverage.Snapshot()
	}
	if s.obs != nil {
		res.Latency = s.obs.Report()
		if m := s.obs.Metrics(); m != nil {
			res.Metrics = m.Report()
		}
	}
	if s.Checker != nil && len(s.Checker.Violations) > 0 {
		res.Violations = append([]Violation(nil), s.Checker.Violations...)
		res.ViolationsDropped = s.Checker.Dropped
		return res, fmt.Errorf("spandex: %d coherence invariant violation(s); first: %s",
			len(res.Violations), res.Violations[0])
	}
	return res, nil
}

// Reader returns a coherent word-reader for post-run validation. Reads go
// through CPU core 0's cache, or GPU CU 0's on a machine without CPUs
// (self-invalidating first), so they exercise the real protocol rather
// than peeking at simulator state.
func (s *System) Reader() func(memaddr.Addr) uint32 {
	l1s := s.CPUL1s
	if len(l1s) == 0 {
		l1s = s.GPUL1s
	}
	l1 := l1s[0]
	return func(a memaddr.Addr) uint32 {
		l1.SelfInvalidate()
		var v uint32
		ok := false
		op := device.Op{Kind: device.OpLoad, Addr: a}
		for tries := 0; !l1.Access(op, func(x uint32) { v = x; ok = true }); tries++ {
			if !s.Engine.Step() || tries > 1<<20 {
				panic("spandex: validation read stalled")
			}
		}
		if !s.Engine.RunUntil(s.Engine.Now() + 1<<40) {
			panic("spandex: validation read did not drain")
		}
		if !ok {
			panic("spandex: validation read never completed")
		}
		return v
	}
}

// Run builds a system, runs the workload, optionally validates the final
// state, and returns the measurements. This is the main entry point.
//
// Run is safe for concurrent use: every call assembles a fully-isolated
// System (its own sim.Engine, Stats, Network, Memory, caches and program
// coroutines) and touches no package-level mutable state — the workload
// registry is read-locked, and Workload.Build implementations are
// stateless by contract (see workload.Register). Consequently a Run's
// Result is bit-identical whether it executes alone or concurrently with
// any number of other Runs; RunMatrix and VerifyDeterminism rely on this
// invariant, and `go test -race ./...` guards it in CI.
func Run(w Workload, opt Options) (Result, error) {
	s, err := NewSystem(opt)
	if err != nil {
		return Result{}, err
	}
	prog := w.Build(s.Machine(), opt.Seed)
	defer prog.Close()
	if err := s.Attach(prog); err != nil {
		return Result{}, err
	}
	res, err := s.Run(opt.MaxTime)
	if err != nil {
		return Result{}, fmt.Errorf("%s on %s: %w", w.Meta().Name, s.cfg.Name, err)
	}
	res.Workload = w.Meta().Name
	if opt.Validate && prog.Validate != nil {
		if err := prog.Validate(s.Reader()); err != nil {
			return Result{}, fmt.Errorf("%s on %s: validation failed: %w", w.Meta().Name, s.cfg.Name, err)
		}
	}
	return res, nil
}
