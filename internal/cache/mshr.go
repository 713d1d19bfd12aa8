package cache

import "spandex/internal/memaddr"

// MSHR is a miss-status holding register file: one entry per outstanding
// line transaction, with protocol-specific payload T. Allocation picks
// the lowest free slot by a trailing-zero scan over an occupancy bitmap,
// so the steady state allocates nothing. Slots are allocated in chunks
// as allocation first reaches them (see chunkSlots), and entry pointers stay
// valid for the entry's lifetime.
type MSHR[T any] struct {
	slots    [][]T
	occ      []uint64 // 1 = slot in use
	capacity int
	byLine   map[memaddr.LineAddr]int32
}

// NewMSHR creates an MSHR file with the given capacity.
func NewMSHR[T any](capacity int) *MSHR[T] {
	return &MSHR[T]{
		occ:      make([]uint64, (capacity+63)/64),
		capacity: capacity,
		byLine:   make(map[memaddr.LineAddr]int32),
	}
}

// Full reports whether a new allocation would exceed capacity.
func (m *MSHR[T]) Full() bool { return len(m.byLine) >= m.capacity }

// Len returns the number of live entries.
func (m *MSHR[T]) Len() int { return len(m.byLine) }

// Lookup returns the entry for line, or nil.
func (m *MSHR[T]) Lookup(line memaddr.LineAddr) *T {
	if i, ok := m.byLine[line]; ok {
		return slotAt(m.slots, i)
	}
	return nil
}

// Alloc returns a zeroed entry for line from the first free slot. It
// panics if the line already has an entry or the file is full; callers
// must check first.
func (m *MSHR[T]) Alloc(line memaddr.LineAddr) *T {
	e := m.AllocReuse(line)
	var zero T
	*e = zero
	return e
}

// AllocReuse is Alloc without the slot zeroing: the returned entry still
// holds whatever the slot's previous occupant left behind. The caller must
// reinitialize every field — typically one struct-literal assignment that
// truncates slice fields to [:0] so their backing arrays are reused:
//
//	r := mshr.AllocReuse(line)
//	*r = entry{id: id, waiters: r.waiters[:0]}
//
// This keeps the per-miss waiter-list allocation out of the steady state.
func (m *MSHR[T]) AllocReuse(line memaddr.LineAddr) *T {
	if m.Full() {
		panic("cache: MSHR overflow")
	}
	if _, ok := m.byLine[line]; ok {
		panic("cache: duplicate MSHR allocation")
	}
	idx := lowestFree(m.occ)
	m.slots = withSlot(m.slots, idx, m.capacity)
	m.occ[idx>>6] |= 1 << (idx & 63)
	m.byLine[line] = int32(idx)
	return slotAt(m.slots, int32(idx))
}

// Free releases the entry for line. The slot may be reused by the next
// Alloc; callers must not retain the entry pointer past this call.
func (m *MSHR[T]) Free(line memaddr.LineAddr) {
	if i, ok := m.byLine[line]; ok {
		delete(m.byLine, line)
		m.occ[i>>6] &^= 1 << (i & 63)
	}
}

// ForEach visits all entries (iteration order unspecified; callers needing
// determinism must not depend on order).
func (m *MSHR[T]) ForEach(fn func(line memaddr.LineAddr, e *T)) {
	for l, i := range m.byLine {
		fn(l, slotAt(m.slots, i))
	}
}
