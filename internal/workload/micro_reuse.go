package workload

import (
	"fmt"

	"spandex/internal/device"
	"spandex/internal/memaddr"
)

// ReuseO is the second synthetic microbenchmark (paper §IV-B1): every CPU
// thread densely reads and writes its own tile of matrix B and sparsely
// reads matrix A; every GPU thread does the opposite. Tiles fit in the L1
// and the process repeats, so data written in one iteration is reused by
// the same core in the next — the pattern that rewards obtaining ownership
// for updates (DeNovo/MESI) and punishes write-through + self-invalidation
// (GPU coherence re-fetches and re-writes its own tile every iteration).
type ReuseO struct {
	TileWords   int
	SparseReads int
	Iters       int
	GPUThreads  int
}

// DefaultReuseO returns the scaled-down evaluation size.
func DefaultReuseO() *ReuseO {
	return &ReuseO{TileWords: 256, SparseReads: 16, Iters: 6, GPUThreads: 32}
}

// Meta implements Workload.
func (w *ReuseO) Meta() Meta {
	return Meta{
		Name:            "reuseo",
		Suite:           "Synthetic",
		Pattern:         "per-thread tile rewrite + sparse remote reads",
		Partitioning:    "data",
		Synchronization: "coarse-grain (barrier per phase)",
		Sharing:         "flat",
		Locality:        "high temporal locality in written data",
		Params: fmt.Sprintf("tile: %d words, sparse reads: %d, iterations: %d",
			w.TileWords, w.SparseReads, w.Iters),
	}
}

// Build implements Workload.
func (w *ReuseO) Build(m Machine, seed uint64) *Program {
	lay := NewLayout()
	gpuThreads := w.GPUThreads
	if max := m.GPUCUs * m.WarpsPerCU; gpuThreads > max {
		gpuThreads = max
	}
	// Matrix A: GPU-owned tiles; matrix B: CPU-owned tiles.
	matA := lay.Words(gpuThreads * w.TileWords)
	matB := lay.Words(m.CPUThreads * w.TileWords)
	nThr := uint32(m.CPUThreads + gpuThreads)
	bar := Barrier{Counter: lay.Words(16), Gen: lay.Words(16), N: nThr}

	errs := make(chan error, int(nThr))
	fail := func(format string, args ...interface{}) {
		select {
		case errs <- fmt.Errorf(format, args...):
		default:
		}
	}

	body := func(tid int, ownBase memaddr.Addr, remoteBase memaddr.Addr, remoteWords int, rng *Rand) func(*Thread) {
		return func(t *Thread) {
			for it := 0; it < w.Iters; it++ {
				// Dense read-modify-write of the private tile: each word
				// increments, so reuse across iterations is exact.
				for k := 0; k < w.TileWords; k++ {
					a := Word(ownBase, k)
					v := t.Load(a)
					if v != uint32(it) {
						fail("reuseo: thread %d iter %d own word %d = %d, want %d",
							tid, it, k, v, it)
						return
					}
					t.Store(a, v+1)
				}
				t.Wait(bar)
				// Sparse strided reads of the other device's matrix: its
				// dense phase for this iteration is complete. A one-class
				// machine has no other matrix.
				for r := 0; r < w.SparseReads && remoteWords > 0; r++ {
					k := rng.Intn(remoteWords)
					v := t.Load(Word(remoteBase, k))
					if v != uint32(it+1) {
						fail("reuseo: thread %d iter %d remote word %d = %d, want %d",
							tid, it, k, v, it+1)
						return
					}
				}
				t.Wait(bar)
			}
		}
	}

	p := &Program{}
	rng := NewRand(seed)
	for i := 0; i < m.CPUThreads; i++ {
		own := Word(matB, i*w.TileWords)
		p.CPU = append(p.CPU, Go(body(i, own, matA, gpuThreads*w.TileWords, NewRand(rng.Uint64()))))
	}
	g := 0
	for cu := 0; cu < m.GPUCUs && g < gpuThreads; cu++ {
		var warps []device.OpStream
		for wp := 0; wp < m.WarpsPerCU && g < gpuThreads; wp++ {
			own := Word(matA, g*w.TileWords)
			warps = append(warps, Go(body(m.CPUThreads+g, own, matB, m.CPUThreads*w.TileWords, NewRand(rng.Uint64()))))
			g++
		}
		p.GPU = append(p.GPU, warps)
	}

	p.Validate = func(read func(memaddr.Addr) uint32) error {
		select {
		case err := <-errs:
			return err
		default:
		}
		for k := 0; k < gpuThreads*w.TileWords; k += 13 {
			if v := read(Word(matA, k)); v != uint32(w.Iters) {
				return fmt.Errorf("reuseo: A[%d] = %d, want %d", k, v, w.Iters)
			}
		}
		for k := 0; k < m.CPUThreads*w.TileWords; k += 13 {
			if v := read(Word(matB, k)); v != uint32(w.Iters) {
				return fmt.Errorf("reuseo: B[%d] = %d, want %d", k, v, w.Iters)
			}
		}
		return nil
	}
	return p
}

// ReuseS is the third synthetic microbenchmark (paper §IV-B1): CPU threads
// and GPU threads take turns densely reading a shared matrix and sparsely
// writing a few words of it. Only writer-initiated invalidation (Shared
// state) can exploit the dense-read reuse across iterations: self-
// invalidating caches must assume all Valid data is stale after each
// synchronization and re-fetch the whole matrix.
type ReuseS struct {
	MatrixWords    int
	SlotsPerThread int
	Rounds         int
	GPUThreads     int
	// UseRegions enables DeNovo regions (paper §II-C): acquires invalidate
	// only the sparse-slot region, recovering the static matrix's reuse on
	// self-invalidating caches. Registered separately as
	// "reuses-regions" and used by the regions ablation benchmark.
	UseRegions bool
}

// DefaultReuseS returns the scaled-down evaluation size.
func DefaultReuseS() *ReuseS {
	return &ReuseS{MatrixWords: 1024, SlotsPerThread: 2, Rounds: 4, GPUThreads: 8}
}

// Meta implements Workload.
func (w *ReuseS) Meta() Meta {
	name := "reuses"
	if w.UseRegions {
		name = "reuses-regions"
	}
	return Meta{
		Name:            name,
		Suite:           "Synthetic",
		Pattern:         "alternating dense reads + sparse writes of one shared matrix",
		Partitioning:    "data",
		Synchronization: "coarse-grain (barrier per phase)",
		Sharing:         "flat",
		Locality:        "high read locality across synchronization",
		Params: fmt.Sprintf("matrix: %d words, slots/thread: %d, rounds: %d",
			w.MatrixWords, w.SlotsPerThread, w.Rounds),
	}
}

// Build implements Workload.
func (w *ReuseS) Build(m Machine, seed uint64) *Program {
	lay := NewLayout()
	gpuThreads := w.GPUThreads
	if max := m.GPUCUs * m.WarpsPerCU; gpuThreads > max {
		gpuThreads = max
	}
	nThr := m.CPUThreads + gpuThreads
	mat := lay.Words(w.MatrixWords)
	bar := Barrier{Counter: lay.Words(16), Gen: lay.Words(16), N: uint32(nThr)}

	// The first SlotsPerThread*nThr words are the sparse write slots
	// (thread i owns slots [i*S, (i+1)*S)); the rest is static.
	slots := w.SlotsPerThread
	staticBase := nThr * slots
	if staticBase >= w.MatrixWords {
		panic("workload: ReuseS matrix too small for slots")
	}

	p := &Program{}
	for k := staticBase; k < w.MatrixWords; k++ {
		p.Init = append(p.Init, WordInit{Word(mat, k), uint32(0x5A5A0000 + k)})
	}

	errs := make(chan error, nThr)
	fail := func(format string, args ...interface{}) {
		select {
		case errs <- fmt.Errorf(format, args...):
		default:
		}
	}

	// Phase structure per round: CPU turn (dense read + sparse write by
	// CPU threads; GPU threads only dense read), barrier, GPU turn
	// (roles swapped), barrier. A thread's dense read skips slots owned
	// by *other threads of the currently writing device* to stay DRF.
	isCPU := func(tid int) bool { return tid < m.CPUThreads }
	slotOwner := func(k int) int { return k / slots }

	// CPU threads densely read the whole matrix (the reuse the benchmark
	// measures); GPU threads read every slot but only one static stripe
	// each — enough to force the writer-invalidation traffic without
	// making the latency-tolerant GPU the critical path.
	body := func(tid int) func(*Thread) {
		return func(t *Thread) {
			if w.UseRegions {
				// Only the sparse slots ever change; tell region-capable
				// caches to leave the static matrix valid across acquires.
				t.SetAcquireRegion(mat, Word(mat, staticBase))
			}
			myFirst := tid * slots
			stripeLo, stripeHi := staticBase, w.MatrixWords
			if !isCPU(tid) {
				g := tid - m.CPUThreads
				stripe := (w.MatrixWords - staticBase) / gpuThreads
				stripeLo = staticBase + g*stripe
				stripeHi = stripeLo + stripe
			}
			denseRead := func(round int, cpuTurn bool) bool {
				for k := 0; k < w.MatrixWords; k++ {
					if k >= staticBase && (k < stripeLo || k >= stripeHi) {
						continue
					}
					if k < staticBase {
						owner := slotOwner(k)
						if owner == tid {
							continue // own slots handled by writes
						}
						// Skip slots that might be written this turn.
						if isCPU(owner) == cpuTurn {
							continue
						}
						want := uint32(round)
						if isCPU(owner) {
							want = uint32(round + 1) // CPU turn precedes
						}
						if v := t.Load(Word(mat, k)); v != want {
							fail("reuses: thread %d round %d slot %d = %d, want %d",
								tid, round, k, v, want)
							return false
						}
						continue
					}
					if v := t.Load(Word(mat, k)); v != uint32(0x5A5A0000+k) {
						fail("reuses: thread %d round %d static %d = %d", tid, round, k, v)
						return false
					}
				}
				return true
			}
			for round := 0; round < w.Rounds; round++ {
				// CPU turn.
				if isCPU(tid) {
					for s := 0; s < slots; s++ {
						t.Store(Word(mat, myFirst+s), uint32(round+1))
					}
				}
				if !denseRead(round, true) {
					return
				}
				t.Wait(bar)
				// GPU turn.
				if !isCPU(tid) {
					for s := 0; s < slots; s++ {
						t.Store(Word(mat, myFirst+s), uint32(round+1))
					}
				}
				if !denseRead(round, false) {
					return
				}
				t.Wait(bar)
			}
		}
	}

	for i := 0; i < m.CPUThreads; i++ {
		p.CPU = append(p.CPU, Go(body(i)))
	}
	g := 0
	for cu := 0; cu < m.GPUCUs && g < gpuThreads; cu++ {
		var warps []device.OpStream
		for wp := 0; wp < m.WarpsPerCU && g < gpuThreads; wp++ {
			warps = append(warps, Go(body(m.CPUThreads+g)))
			g++
		}
		p.GPU = append(p.GPU, warps)
	}

	p.Validate = func(read func(memaddr.Addr) uint32) error {
		select {
		case err := <-errs:
			return err
		default:
		}
		for k := 0; k < staticBase; k++ {
			if v := read(Word(mat, k)); v != uint32(w.Rounds) {
				return fmt.Errorf("reuses: slot %d = %d, want %d", k, v, w.Rounds)
			}
		}
		for k := staticBase; k < w.MatrixWords; k += 17 {
			if v := read(Word(mat, k)); v != uint32(0x5A5A0000+k) {
				return fmt.Errorf("reuses: static %d corrupted: %#x", k, v)
			}
		}
		return nil
	}
	return p
}

func init() {
	Register(DefaultReuseO())
	Register(DefaultReuseS())
	regions := DefaultReuseS()
	regions.UseRegions = true
	Register(regions)
}
