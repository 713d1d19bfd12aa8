package cache

import "math/bits"

// MSHR and WriteBuffer slot storage. A buffer's capacity bounds its slot
// indices, but slots are allocated chunkSlots at a time, when allocation
// first reaches them: a short-lived system that touches a handful of
// entries pays for one chunk, not for the full capacity. An allocated
// chunk never moves, so a slot pointer stays valid for the buffer's
// lifetime.
const (
	chunkBits  = 3
	chunkSlots = 1 << chunkBits
	chunkMask  = chunkSlots - 1
)

// slotAt returns slot i.
func slotAt[T any](chunks [][]T, i int32) *T {
	return &chunks[i>>chunkBits][i&chunkMask]
}

// lowestFree returns the lowest slot index whose occupancy bit is clear.
// The caller has checked that the buffer is not full, so the index is
// below capacity.
func lowestFree(occ []uint64) int {
	for w, word := range occ {
		if free := ^word; free != 0 {
			return w<<6 + bits.TrailingZeros64(free)
		}
	}
	panic("cache: no free slot")
}

// withSlot returns chunks extended, if needed, so that slot i exists.
// Slots are handed out lowest-free-first, so i is at most the first slot
// past the allocated chunks. A chunk holds chunkSlots slots, or fewer
// when capacity ends inside it.
func withSlot[T any](chunks [][]T, i, capacity int) [][]T {
	c := i >> chunkBits
	if c < len(chunks) {
		return chunks
	}
	if chunks == nil {
		chunks = make([][]T, 0, (capacity+chunkMask)>>chunkBits)
	}
	return append(chunks, make([]T, min(chunkSlots, capacity-c<<chunkBits)))
}
