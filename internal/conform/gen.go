package conform

import (
	"fmt"

	"spandex"
)

// GenParams bounds the random program generator. Zero values take the
// defaults noted per field.
type GenParams struct {
	MinThreads, MaxThreads int // 2, 5
	MinPhases, MaxPhases   int // 2, 4
	OpsPerPhase            int // 8 (mean per thread per phase)
	PrivateWords           int // 8
	ROWords                int // 16
	Chunks                 int // 4
	ChunkWords             int // 6 (sub-line, so adjacent chunks share cache lines)
	AtomicWords            int // 4
}

func (p GenParams) norm() GenParams {
	def := func(v *int, d int) {
		if *v <= 0 {
			*v = d
		}
	}
	def(&p.MinThreads, 2)
	def(&p.MaxThreads, 5)
	def(&p.MinPhases, 2)
	def(&p.MaxPhases, 4)
	def(&p.OpsPerPhase, 8)
	def(&p.PrivateWords, 8)
	def(&p.ROWords, 16)
	def(&p.Chunks, 4)
	// ChunkWords deliberately defaults below a full line (16 words):
	// adjacent chunks then share cache lines, so different owners write
	// disjoint words of one line concurrently — DRF false sharing, the
	// word- vs line-granularity boundary the protocols must all get right.
	def(&p.ChunkWords, 6)
	def(&p.AtomicWords, 4)
	if p.MaxThreads < p.MinThreads {
		p.MaxThreads = p.MinThreads
	}
	if p.MaxPhases < p.MinPhases {
		p.MaxPhases = p.MinPhases
	}
	return p
}

// Generate builds a random race-free case from a seed. The result is a
// pure function of (seed, params): the case stores explicit operation
// lists, so replay and shrinking never consult the generator again.
// Generated cases always pass Validate.
func Generate(seed uint64, gp GenParams) *Case {
	gp = gp.norm()
	rng := spandex.NewRand(seed)
	nThr := gp.MinThreads + rng.Intn(gp.MaxThreads-gp.MinThreads+1)
	c := &Case{
		Name:         fmt.Sprintf("seed-%d", seed),
		Seed:         seed,
		Phases:       gp.MinPhases + rng.Intn(gp.MaxPhases-gp.MinPhases+1),
		PrivateWords: gp.PrivateWords,
		ROWords:      gp.ROWords,
		Chunks:       gp.Chunks,
		ChunkWords:   gp.ChunkWords,
		AtomicWords:  gp.AtomicWords,
	}
	for t := 0; t < nThr; t++ {
		c.Threads = append(c.Threads, ThreadCase{OnGPU: rng.Intn(2) == 1})
	}
	// Ownership schedule: each (phase, chunk) is read-shared 1 time in 4,
	// otherwise owned by a random thread. Consecutive phases frequently
	// hand a chunk to a different thread — and with GPU placement random,
	// to a different coherence strategy.
	for p := 0; p < c.Phases; p++ {
		row := make([]int, c.Chunks)
		for k := range row {
			if rng.Intn(4) == 0 {
				row[k] = ReadShared
			} else {
				row[k] = rng.Intn(nThr)
			}
		}
		c.Owner = append(c.Owner, row)
	}
	for t := 0; t < nThr; t++ {
		for p := 0; p < c.Phases; p++ {
			n := 1 + rng.Intn(2*gp.OpsPerPhase)
			ops := make([]Op, 0, n)
			for i := 0; i < n; i++ {
				ops = append(ops, c.genOp(rng, t, p))
			}
			c.Threads[t].Ops = append(c.Threads[t].Ops, ops)
		}
	}
	return c
}

// chunkPool names the chunks an op choice draws its target from.
type chunkPool uint8

const (
	poolNone     chunkPool = iota // the op targets no chunk
	poolOwned                     // chunks the thread owns this phase
	poolReadable                  // chunks it owns or that are read-shared
	numPools
)

// opGen is one weighted op choice. A choice whose pool is empty for the
// thread and phase drops out of the draw; otherwise make builds the op
// from the chunk drawn from the pool (0 for poolNone).
type opGen struct {
	weight int
	pool   chunkPool
	make   func(c *Case, rng *spandex.Rand, chunk int) Op
}

// opGens is the generator's op mix. Entry order is the order of the
// weighted draw and so part of the case format: reordering the table
// changes every generated case.
var opGens = [...]opGen{
	{12, poolNone, func(c *Case, rng *spandex.Rand, _ int) Op {
		return Op{Kind: OpLoad, Region: RegPrivate, Word: rng.Intn(c.PrivateWords)}
	}},
	{12, poolNone, func(c *Case, rng *spandex.Rand, _ int) Op {
		return Op{Kind: OpStore, Region: RegPrivate, Word: rng.Intn(c.PrivateWords), Val: rng.U32()}
	}},
	{10, poolNone, func(c *Case, rng *spandex.Rand, _ int) Op {
		return Op{Kind: OpLoad, Region: RegRO, Word: rng.Intn(c.ROWords)}
	}},
	{10, poolNone, func(c *Case, rng *spandex.Rand, _ int) Op {
		return Op{Kind: OpFetchAdd, Region: RegAtomic, Word: rng.Intn(c.AtomicWords), Val: uint32(1 + rng.Intn(9))}
	}},
	{3, poolNone, func(*Case, *spandex.Rand, int) Op { return Op{Kind: OpFence} }},
	{5, poolNone, func(_ *Case, rng *spandex.Rand, _ int) Op {
		return Op{Kind: OpCompute, Val: uint32(rng.Intn(200))}
	}},
	{22, poolOwned, func(c *Case, rng *spandex.Rand, k int) Op {
		return Op{Kind: OpStore, Region: RegChunk, Chunk: k, Word: rng.Intn(c.ChunkWords), Val: rng.U32()}
	}},
	{14, poolOwned, func(c *Case, rng *spandex.Rand, k int) Op {
		return Op{Kind: OpLoad, Region: RegChunk, Chunk: k, Word: rng.Intn(c.ChunkWords)}
	}},
	{12, poolReadable, func(c *Case, rng *spandex.Rand, k int) Op {
		return Op{Kind: OpLoad, Region: RegChunk, Chunk: k, Word: rng.Intn(c.ChunkWords)}
	}},
}

// genOp picks one discipline-respecting operation for thread t in phase
// p: a weighted draw over the available choices, then, for a chunk
// choice, a uniform draw of the chunk from its pool.
func (c *Case) genOp(rng *spandex.Rand, t, p int) Op {
	var size [numPools]int
	size[poolNone] = 1
	for _, o := range c.Owner[p] {
		if o == t {
			size[poolOwned]++
		}
		if o == t || o == ReadShared {
			size[poolReadable]++
		}
	}
	total := 0
	for i := range opGens {
		if size[opGens[i].pool] > 0 {
			total += opGens[i].weight
		}
	}
	pick := rng.Intn(total)
	for i := range opGens {
		g := &opGens[i]
		if size[g.pool] == 0 {
			continue
		}
		if pick >= g.weight {
			pick -= g.weight
			continue
		}
		chunk := 0
		if g.pool != poolNone {
			chunk = c.nthChunk(t, p, g.pool, rng.Intn(size[g.pool]))
		}
		return g.make(c, rng, chunk)
	}
	panic("conform: weighted pick out of range")
}

// nthChunk returns the n-th chunk, in index order, of thread t's pool in
// phase p.
func (c *Case) nthChunk(t, p int, pool chunkPool, n int) int {
	for k, o := range c.Owner[p] {
		if o == t || pool == poolReadable && o == ReadShared {
			if n == 0 {
				return k
			}
			n--
		}
	}
	panic("conform: chunk draw out of range")
}
