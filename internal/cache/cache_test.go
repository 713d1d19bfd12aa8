package cache

import (
	"fmt"
	"testing"
	"testing/quick"

	"spandex/internal/memaddr"
)

func line(n uint64) memaddr.LineAddr { return memaddr.LineAddr(n << memaddr.LineShift) }

func TestArrayGeometry(t *testing.T) {
	a := NewArray[int](32*1024, 8)
	if a.Sets() != 64 || a.Ways() != 8 {
		t.Fatalf("geometry %dx%d", a.Sets(), a.Ways())
	}
}

func TestArrayBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-power-of-two sets")
		}
	}()
	NewArray[int](3*memaddr.LineBytes*2, 2) // 3 sets
}

func TestCheckGeometry(t *testing.T) {
	for _, tc := range []struct {
		bytes, ways int
		ok          bool
	}{
		{32 * 1024, 8, true},
		{memaddr.LineBytes, 1, true},
		{2 * memaddr.LineBytes, 2, true},
		{32 * 1024, 0, false},                 // no ways
		{0, 8, false},                         // no sets
		{1000, 8, false},                      // 15 lines over 8 ways
		{256 * 1024 / 3, 16, false},           // 1365 lines over 16 ways
		{3 * memaddr.LineBytes * 2, 2, false}, // 3 sets
		{-memaddr.LineBytes, 1, false},
	} {
		if err := CheckGeometry(tc.bytes, tc.ways); (err == nil) != tc.ok {
			t.Errorf("CheckGeometry(%d, %d) = %v, want ok=%v", tc.bytes, tc.ways, err, tc.ok)
		}
	}
}

func TestLookupInstall(t *testing.T) {
	a := NewArray[string](4*1024, 4)
	l := line(5)
	if a.Lookup(l) != nil {
		t.Fatal("phantom hit")
	}
	v := a.Victim(l)
	if v == nil || v.Valid {
		t.Fatal("expected an invalid victim frame in empty set")
	}
	a.Install(v, l)
	e := a.Lookup(l)
	if e == nil || e.Line != l {
		t.Fatal("installed line not found")
	}
	e.State = "hello"
	if a.Peek(l).State != "hello" {
		t.Fatal("state lost")
	}
	a.Invalidate(l)
	if a.Lookup(l) != nil {
		t.Fatal("line survived invalidate")
	}
}

func TestLRUReplacement(t *testing.T) {
	a := NewArray[int](2*memaddr.LineBytes, 2) // 1 set, 2 ways
	l0, l1, l2 := line(0), line(1), line(2)
	a.Install(a.Victim(l0), l0)
	a.Install(a.Victim(l1), l1)
	a.Lookup(l0) // l0 now MRU; victim should be l1
	v := a.Victim(l2)
	if !v.Valid || v.Line != l1 {
		t.Fatalf("victim = %+v, want line %#x", v, l1)
	}
	a.Install(v, l2)
	if a.Lookup(l1) != nil || a.Lookup(l0) == nil || a.Lookup(l2) == nil {
		t.Fatal("replacement corrupted set")
	}
}

func TestPeekDoesNotTouchLRU(t *testing.T) {
	a := NewArray[int](2*memaddr.LineBytes, 2)
	l0, l1 := line(0), line(1)
	a.Install(a.Victim(l0), l0)
	a.Install(a.Victim(l1), l1)
	a.Peek(l0) // must NOT refresh l0
	v := a.Victim(line(2))
	if v.Line != l0 {
		t.Fatalf("Peek refreshed LRU: victim %#x", v.Line)
	}
}

func TestArraySetConflictsOnly(t *testing.T) {
	// Lines mapping to different sets never evict each other.
	a := NewArray[int](8*memaddr.LineBytes, 1) // 8 sets, direct mapped
	for i := uint64(0); i < 8; i++ {
		l := line(i)
		a.Install(a.Victim(l), l)
	}
	for i := uint64(0); i < 8; i++ {
		if a.Lookup(line(i)) == nil {
			t.Fatalf("line %d evicted by non-conflicting install", i)
		}
	}
	// line(8) conflicts with line(0) only.
	v := a.Victim(line(8))
	if v.Line != line(0) {
		t.Fatalf("victim %#x, want %#x", v.Line, line(0))
	}
}

func TestMSHR(t *testing.T) {
	type entry struct{ n int }
	m := NewMSHR[entry](2)
	e := m.Alloc(line(1))
	e.n = 42
	if m.Lookup(line(1)).n != 42 {
		t.Fatal("lookup mismatch")
	}
	m.Alloc(line(2))
	if !m.Full() {
		t.Fatal("should be full")
	}
	m.Free(line(1))
	if m.Full() || m.Len() != 1 {
		t.Fatal("free failed")
	}
	if m.Lookup(line(1)) != nil {
		t.Fatal("freed entry still visible")
	}
}

func TestMSHRDuplicatePanics(t *testing.T) {
	m := NewMSHR[int](4)
	m.Alloc(line(1))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate alloc did not panic")
		}
	}()
	m.Alloc(line(1))
}

func TestWriteBufferCoalescing(t *testing.T) {
	w := NewWriteBuffer(4)
	if !w.Put(memaddr.Addr(0x100), 1) {
		t.Fatal("first store should allocate")
	}
	if w.Put(memaddr.Addr(0x104), 2) {
		t.Fatal("same-line store should coalesce")
	}
	if w.Len() != 1 {
		t.Fatalf("len = %d", w.Len())
	}
	e := w.NextUnissued()
	if e.Mask != 0b11 || e.Data[0] != 1 || e.Data[1] != 2 {
		t.Fatalf("entry = %+v", e)
	}
	e.Issued = true
	if w.Put(memaddr.Addr(0x108), 3) != true {
		t.Fatal("store to issued entry must allocate a new slot")
	}
	if w.Len() != 2 {
		t.Fatalf("len = %d", w.Len())
	}
}

func TestWriteBufferForwarding(t *testing.T) {
	w := NewWriteBuffer(4)
	w.Put(memaddr.Addr(0x40), 7)
	if v, ok := w.ReadForward(memaddr.Addr(0x40)); !ok || v != 7 {
		t.Fatalf("forward = %d,%v", v, ok)
	}
	if _, ok := w.ReadForward(memaddr.Addr(0x44)); ok {
		t.Fatal("forwarded a word that was never stored")
	}
	w.Complete(memaddr.Addr(0x40).Line())
	if _, ok := w.ReadForward(memaddr.Addr(0x40)); ok {
		t.Fatal("forwarded after completion")
	}
	if !w.Empty() {
		t.Fatal("not empty after complete")
	}
}

func TestWriteBufferFIFOOrder(t *testing.T) {
	w := NewWriteBuffer(8)
	w.Put(memaddr.Addr(0x40), 1)
	w.Put(memaddr.Addr(0x80), 2)
	w.Put(memaddr.Addr(0xc0), 3)
	e := w.NextUnissued()
	if e.Line != memaddr.Addr(0x40).Line() {
		t.Fatal("drain not FIFO")
	}
	w.MarkIssued(e)
	if w.NextUnissued().Line != memaddr.Addr(0x80).Line() {
		t.Fatal("drain not FIFO after issue")
	}
	w.Complete(memaddr.Addr(0x40).Line())
	if w.Len() != 2 {
		t.Fatalf("len = %d", w.Len())
	}
}

// Property: after any sequence of Puts, ReadForward returns exactly the
// last value written to each word that has an entry.
func TestWriteBufferProperty(t *testing.T) {
	f := func(ops []struct {
		Word uint8
		Val  uint32
	}) bool {
		w := NewWriteBuffer(1024)
		want := map[memaddr.Addr]uint32{}
		for _, op := range ops {
			addr := memaddr.Addr(op.Word%64) * 4 // 16 lines' worth of words
			if w.Full() && !w.CanCoalesce(addr) {
				break
			}
			w.Put(addr, op.Val)
			want[addr] = op.Val
		}
		for a, v := range want {
			got, ok := w.ReadForward(a)
			if !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// slotCapacities are buffer sizes around the slot-chunk boundaries: one
// partial chunk, exactly one and two chunks, one slot into a third, and
// the default machine's 128.
var slotCapacities = []int{1, 8, 16, 17, 128}

// reuseOrder frees every other entry of a full buffer of n, top down, and
// returns the freed indices lowest first: the order a lowest-free-slot
// allocator must hand the slots back.
func reuseOrder(n int, free func(i int)) []int {
	var freed []int
	for i := n - 1; i >= 0; i -= 2 {
		free(i)
		freed = append([]int{i}, freed...)
	}
	return freed
}

// TestMSHRSlots fills MSHRs to capacity and checks that Full turns true
// exactly there, that entry pointers survive every later allocation, and
// that freed slots are reused lowest first.
func TestMSHRSlots(t *testing.T) {
	for _, n := range slotCapacities {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			m := NewMSHR[int](n)
			ptrs := make([]*int, n)
			for i := range ptrs {
				if m.Full() {
					t.Fatalf("full with %d of %d entries", i, n)
				}
				ptrs[i] = m.Alloc(line(uint64(i)))
				*ptrs[i] = i
			}
			if !m.Full() || m.Len() != n {
				t.Fatalf("Full=%v Len=%d at capacity %d", m.Full(), m.Len(), n)
			}
			for i, p := range ptrs {
				if got := m.Lookup(line(uint64(i))); got != p || *got != i {
					t.Fatalf("entry %d moved or changed", i)
				}
			}
			freed := reuseOrder(n, func(i int) { m.Free(line(uint64(i))) })
			for j, i := range freed {
				if p := m.Alloc(line(uint64(n + j))); p != ptrs[i] {
					t.Fatalf("allocation %d after frees did not reuse slot %d (freed %v)", j, i, freed)
				}
			}
			if !m.Full() {
				t.Fatal("not full after refilling the freed slots")
			}
			for i := n - 2; i >= 0; i -= 2 {
				if got := m.Lookup(line(uint64(i))); got != ptrs[i] || *got != i {
					t.Fatalf("surviving entry %d moved or changed", i)
				}
			}
		})
	}
}

// TestWriteBufferSlots is TestMSHRSlots for write buffers, and also
// checks that issue order stays allocation (FIFO) order when refilled
// slots are not in age order.
func TestWriteBufferSlots(t *testing.T) {
	addr := func(i int) memaddr.Addr { return memaddr.Addr(i) << memaddr.LineShift }
	for _, n := range slotCapacities {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			w := NewWriteBuffer(n)
			ptrs := make([]*WBEntry, n)
			for i := range ptrs {
				if w.Full() {
					t.Fatalf("full with %d of %d entries", i, n)
				}
				w.Put(addr(i), uint32(i))
				ptrs[i] = w.Lookup(addr(i).Line())
			}
			if !w.Full() || w.Len() != n {
				t.Fatalf("Full=%v Len=%d at capacity %d", w.Full(), w.Len(), n)
			}
			for i, p := range ptrs {
				if got := w.Lookup(addr(i).Line()); got != p || got.Data[0] != uint32(i) {
					t.Fatalf("entry %d moved or changed", i)
				}
			}
			freed := reuseOrder(n, func(i int) { w.Complete(addr(i).Line()) })
			var want []memaddr.LineAddr
			for i := n - 2; i >= 0; i -= 2 {
				want = append([]memaddr.LineAddr{addr(i).Line()}, want...)
			}
			for j, i := range freed {
				w.Put(addr(n+j), 0)
				if p := w.Lookup(addr(n + j).Line()); p != ptrs[i] {
					t.Fatalf("allocation %d after frees did not reuse slot %d (freed %v)", j, i, freed)
				}
				want = append(want, addr(n+j).Line())
			}
			if !w.Full() {
				t.Fatal("not full after refilling the freed slots")
			}
			var got []memaddr.LineAddr
			for _, e := range w.Unissued() {
				got = append(got, e.Line)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("issue order %v, want allocation order %v", got, want)
			}
			if e := w.NextUnissued(); e.Line != want[0] {
				t.Fatalf("oldest unissued %v, want %v", e.Line, want[0])
			}
		})
	}
}
