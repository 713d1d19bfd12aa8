package mcheck

import (
	"bytes"
	"cmp"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"spandex/internal/cache"
	"spandex/internal/core"
	"spandex/internal/noc"
	"spandex/internal/proto"
	"spandex/internal/sim"
	"spandex/internal/stats"
)

// fingerprint.go canonicalizes a world's protocol state into a 64-bit
// structural hash, the memoization key of the DFS. Two worlds reached by
// different interleavings must hash equal iff their protocol-visible state
// is equal, so the walk:
//
//   - skips the simulation scaffolding (engine, network, stats, checker,
//     coverage recorder) and every sim.Time-typed field — absolute times
//     differ between interleavings without affecting protocol behaviour;
//   - skips cache LRU bookkeeping (field names "lru"/"tick"), which
//     counts accesses and would otherwise split logically equal states;
//   - skips per-scenario configuration that is identical in every world of
//     a scenario (the LLC's device registration tables, the scripted
//     device names);
//   - skips sim.Pool fields and collapses nil and empty slices: object
//     pools and recycled backing arrays are allocator state, and which of
//     two logically equal worlds happened to recycle a record is an
//     interleaving-history artifact;
//   - hashes cache.MSHR and cache.WriteBuffer by their live entries only
//     (sorted by line, resp. FIFO seq order): slot indices, free bitmaps,
//     stale content in freed slots, and raw allocation stamps all differ
//     between interleavings that reach the same protocol state;
//   - hashes pointers by first-visit traversal index, never by address, so
//     aliasing structure is captured but heap layout is not;
//   - hashes func values as nil/non-nil only (completion callbacks; which
//     operation they belong to is captured by the device script cursors);
//   - serializes map entries and sorts them, removing iteration order.
//
// Under Reduction.Canon the walk additionally canonicalizes two identity
// artifacts (see world.fingerprint):
//
//   - the pending message pool is serialized per (src, dst) FIFO with the
//     pairs sorted, not in flat send order — the network only ever
//     delivers per-pair heads, so the interleaving of different pairs in
//     the flat slice is history residue, not state;
//   - interchangeable devices (same protocol, identical scripts) are
//     renamed: the hash is minimized over every permutation within the
//     scenario's device symmetry classes, translating each proto.NodeID
//     value, the LLC directory's sharer bitset and per-word owner indices,
//     and walking the devices in canonical order. Two states that differ
//     only by a swap of identical devices then hash equal.
//
// All of these rules are resolved once per reflect.Type into a typePlan
// (field indices, skips, special handlers, child plans); the per-state
// walk only follows plans and appends text to a byte buffer.
//
// The hash folds the canonical byte string with 64-bit FNV-1a, each byte
// zero-extended to a 64-bit word: h = (h ^ c) · p⁸ per byte, p the FNV
// prime (exactly stats.FNVAdd(h, c)). The values themselves, not just the
// equalities they induce, are load-bearing: fingerprint() keeps the
// renaming with the minimum hash (curPerm), and sleep sets are stored in
// that renaming's coordinates, so a different encoding or fold would pick
// different representatives and change transition and sleep-skip counts.
// A 64-bit collision would wrongly prune a reachable state; with the tiny
// state counts mcheck explores (≤ millions) the probability is negligible.

// scaffoldTypes are pointer types whose referents are simulation
// scaffolding, not protocol state.
var scaffoldTypes = map[reflect.Type]bool{
	reflect.TypeFor[*sim.Engine]():              true,
	reflect.TypeFor[*noc.Network]():             true,
	reflect.TypeFor[*stats.Stats]():             true,
	reflect.TypeFor[*core.Checker]():            true,
	reflect.TypeFor[*core.TransitionCoverage](): true,
}

// skipFields are struct field names holding replacement-policy tick
// counters (cache.Array/Entry): pure access counts, irrelevant to
// protocol state.
var skipFields = map[string]bool{
	"lru":  true,
	"tick": true,
}

// skipStructFields drops per-scenario configuration that is bit-identical
// in every world of a scenario and would otherwise defeat the symmetry
// renaming: the LLC's registration tables list devices in registration
// order, a device's display name embeds its original index, and its holds
// query is a method value bound at construction (not data at all).
var skipStructFields = map[reflect.Type]map[string]bool{
	reflect.TypeFor[core.LLC](): {"devices": true, "devIdx": true, "isMESI": true},
	reflect.TypeFor[mdev]():     {"name": true, "holds": true},
}

var (
	nodeIDType      = reflect.TypeFor[proto.NodeID]()
	messageType     = reflect.TypeFor[proto.Message]()
	simTimeType     = reflect.TypeFor[sim.Time]()
	writeBufferType = reflect.TypeFor[cache.WriteBuffer]()
	simPkg          = simTimeType.PkgPath()
	cachePkg        = writeBufferType.PkgPath()
	corePkg         = reflect.TypeFor[core.LLC]().PkgPath()
)

// planOp selects how a typePlan encodes a value.
type planOp uint8

const (
	opBool planOp = iota
	opInt
	opUint
	opString
	opFunc
	opNodeID // proto.NodeID: renamed under a device permutation
	opPtr
	opIface
	opSlice
	opArray
	opMap
	opStruct
	opMSHR        // cache.MSHR[T]: live entries sorted by line
	opWriteBuffer // cache.WriteBuffer: live entries in seq order
)

// fieldRole marks the core.llcLine fields a device renaming rewrites.
type fieldRole uint8

const (
	rolePlain   fieldRole = iota
	roleSharers           // bitset of device indices
	roleOwner             // per-word owner device indices, -1 = none
)

// typePlan is the compiled encoding of one reflect.Type.
type typePlan struct {
	op planOp
	// ifaceTag prefixes a value of this type held in an interface.
	ifaceTag string
	// elem is the pointee, slice/array element, map value, or MSHR slot
	// payload; key is the map or MSHR key.
	elem, key *typePlan
	// skip marks a scaffolding pointer, hashed as "p_".
	skip bool
	// header opens a struct: "t<T>{".
	header string
	// fields are a struct's hashed fields; for a WriteBuffer, the
	// WBEntry fields other than seq.
	fields []fieldPlan
	// byLine, slots and seq are MSHR/WriteBuffer field indices (seq in
	// WBEntry).
	byLine, slots, seq int
}

type fieldPlan struct {
	index int
	label string // "name=", empty for WriteBuffer entries
	role  fieldRole
	plan  *typePlan
}

// plans is the published plan cache: an immutable map replaced wholesale
// (under planMu) whenever a build adds types, so lookups take no lock and
// parallel Explore calls share one cache.
var (
	planMu sync.Mutex
	plans  atomic.Pointer[map[reflect.Type]*typePlan]
)

// planFor returns t's plan, compiling it (and every type it reaches
// except through interfaces) on first use.
func planFor(t reflect.Type) *typePlan {
	if m := plans.Load(); m != nil {
		if p := (*m)[t]; p != nil {
			return p
		}
	}
	planMu.Lock()
	defer planMu.Unlock()
	built := make(map[reflect.Type]*typePlan)
	if m := plans.Load(); m != nil {
		if p := (*m)[t]; p != nil {
			return p
		}
		maps.Copy(built, *m)
	}
	p := buildPlan(built, t, strings.TrimLeft(t.String(), "*"))
	plans.Store(&built)
	return p
}

// buildPlan compiles t into built. path names where t was reached
// (Type.field[] ...), for the unhashable-kind panic. The plan is
// registered before its children are built, so recursive types close
// their cycles on it.
func buildPlan(built map[reflect.Type]*typePlan, t reflect.Type, path string) *typePlan {
	if p := built[t]; p != nil {
		return p
	}
	p := &typePlan{ifaceTag: "n<" + t.String() + ">"}
	built[t] = p
	if t == nodeIDType {
		p.op = opNodeID
		return p
	}
	switch t.Kind() {
	case reflect.Bool:
		p.op = opBool
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		p.op = opInt
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		p.op = opUint
	case reflect.String:
		p.op = opString
	case reflect.Func:
		p.op = opFunc
	case reflect.Ptr:
		p.op = opPtr
		if scaffoldTypes[t] {
			p.skip = true
		} else {
			p.elem = buildPlan(built, t.Elem(), path)
		}
	case reflect.Interface:
		p.op = opIface
	case reflect.Slice:
		p.op = opSlice
		p.elem = buildPlan(built, t.Elem(), path+"[]")
	case reflect.Array:
		p.op = opArray
		p.elem = buildPlan(built, t.Elem(), path+"[]")
	case reflect.Map:
		p.op = opMap
		p.key = buildPlan(built, t.Key(), path+"[key]")
		p.elem = buildPlan(built, t.Elem(), path+"[]")
	case reflect.Struct:
		buildStruct(built, p, t, path)
	default:
		panic(fmt.Sprintf("mcheck: unhashable %s at %s", t, path))
	}
	return p
}

func buildStruct(built map[reflect.Type]*typePlan, p *typePlan, t reflect.Type, path string) {
	field := func(name string) reflect.StructField {
		f, ok := t.FieldByName(name)
		if !ok {
			panic("mcheck: " + t.String() + " has no field " + name)
		}
		return f
	}
	switch {
	case t.PkgPath() == cachePkg && strings.HasPrefix(t.Name(), "MSHR["):
		p.op = opMSHR
		byLine, slots := field("byLine"), field("slots")
		p.byLine, p.slots = byLine.Index[0], slots.Index[0]
		p.key = buildPlan(built, byLine.Type.Key(), path+".byLine[key]")
		p.elem = buildPlan(built, slots.Type.Elem().Elem(), path+".slots[]")
		return
	case t == writeBufferType:
		p.op = opWriteBuffer
		byLine, slots := field("byLine"), field("slots")
		p.byLine, p.slots = byLine.Index[0], slots.Index[0]
		et := slots.Type.Elem().Elem()
		for i := 0; i < et.NumField(); i++ {
			f := et.Field(i)
			if f.Name == "seq" {
				p.seq = i
				continue
			}
			p.fields = append(p.fields, fieldPlan{
				index: i, plan: buildPlan(built, f.Type, path+".slots[]."+f.Name),
			})
		}
		return
	}
	p.op = opStruct
	p.header = "t<" + t.String() + ">{"
	skip := skipStructFields[t]
	llcLine := t.PkgPath() == corePkg && t.Name() == "llcLine"
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if skipFields[f.Name] || skip[f.Name] || f.Type == simTimeType ||
			f.Type.PkgPath() == simPkg && strings.HasPrefix(f.Type.Name(), "Pool[") {
			continue
		}
		// The sendV/l1V scratch slots hold a copy of the last message
		// sent — pure history residue, never read after the Send.
		if (f.Name == "out" || f.Name == "toL1") && f.Type == messageType {
			continue
		}
		fp := fieldPlan{index: i, label: f.Name + "="}
		switch {
		case llcLine && f.Name == "sharers":
			fp.role = roleSharers
		case llcLine && f.Name == "owner":
			fp.role = roleOwner
		default:
			fp.plan = buildPlan(built, f.Type, path+"."+f.Name)
		}
		p.fields = append(p.fields, fp)
	}
}

// hasher is the scratch state of one fingerprint: the canonical byte
// string, the pointer first-visit table, and the buffers that sort map
// entries and order write-buffer and pending-pool contents. Hashers are
// pooled rather than kept per world, so the scratch is shared by every
// renaming of a fingerprint() call without growing each live world.
type hasher struct {
	// idmap, when non-nil, renames device identities: every proto.NodeID
	// value v with 0 <= v < len(idmap) hashes as idmap[v], the LLC sharer
	// bitset is bit-permuted and per-word owner indices are mapped.
	// Device indices and NodeIDs coincide in mcheck worlds (devices are
	// registered in id order), so one table serves both encodings.
	idmap   []int8
	visited map[uintptr]int
	buf     []byte
	// tmp and spans reorder sorted map entries; lives orders write-buffer
	// slots. Each is used as a stack, so nested maps share it. pend orders
	// the pending pool.
	tmp   []byte
	spans []span
	lives []wbLive
	pend  []pendingMsg
}

type span struct{ lo, hi int }

type wbLive struct {
	seq uint64
	idx int
}

// pendingMsg is pending[k] keyed by its renamed (src, dst) pair.
type pendingMsg struct {
	src, dst int64
	k        int
}

var hasherPool = sync.Pool{New: func() any { return &hasher{visited: make(map[uintptr]int)} }}

// reset starts a new canonical string under the given renaming.
func (h *hasher) reset(idmap []int8) {
	h.idmap = idmap
	clear(h.visited)
	h.buf = h.buf[:0]
}

func (h *hasher) mapID(id int64) int64 {
	if h.idmap != nil && id >= 0 && id < int64(len(h.idmap)) {
		return int64(h.idmap[id])
	}
	return id
}

// root appends one top-level value and its '|' terminator.
func (h *hasher) root(x any) {
	v := reflect.ValueOf(x)
	h.walk(planFor(v.Type()), v)
	h.buf = append(h.buf, '|')
}

func (h *hasher) walk(p *typePlan, v reflect.Value) {
	switch p.op {
	case opBool:
		if v.Bool() {
			h.buf = append(h.buf, 'T')
		} else {
			h.buf = append(h.buf, 'F')
		}
	case opInt:
		h.buf = strconv.AppendInt(append(h.buf, 'i'), v.Int(), 10)
	case opNodeID:
		h.buf = strconv.AppendInt(append(h.buf, 'i'), h.mapID(v.Int()), 10)
	case opUint:
		h.buf = strconv.AppendUint(append(h.buf, 'u'), v.Uint(), 10)
	case opString:
		h.buf = strconv.AppendQuote(append(h.buf, 's'), v.String())
	case opFunc:
		if v.IsNil() {
			h.buf = append(h.buf, "f0"...)
		} else {
			h.buf = append(h.buf, "f1"...)
		}
	case opPtr:
		if v.IsNil() {
			h.buf = append(h.buf, "p0"...)
			return
		}
		if p.skip {
			h.buf = append(h.buf, "p_"...)
			return
		}
		addr := v.Pointer()
		if idx, ok := h.visited[addr]; ok {
			h.buf = strconv.AppendInt(append(h.buf, "p@"...), int64(idx), 10)
			return
		}
		h.visited[addr] = len(h.visited)
		h.buf = append(h.buf, "p{"...)
		h.walk(p.elem, v.Elem())
		h.buf = append(h.buf, '}')
	case opIface:
		if v.IsNil() {
			h.buf = append(h.buf, "n0"...)
			return
		}
		e := v.Elem()
		ep := planFor(e.Type())
		h.buf = append(h.buf, ep.ifaceTag...)
		h.walk(ep, e)
	case opSlice:
		// nil and empty collapse: a recycled record holds non-nil empty
		// queues ([:0] over the old backing array) where a fresh record
		// holds nil — the same logical state either way.
		n := v.Len()
		if n == 0 {
			h.buf = append(h.buf, "l0"...)
			return
		}
		h.buf = append(strconv.AppendInt(append(h.buf, 'l'), int64(n), 10), '[')
		h.elems(p.elem, v, n)
	case opArray:
		h.buf = append(h.buf, "a["...)
		h.elems(p.elem, v, v.Len())
	case opMap:
		if v.IsNil() {
			h.buf = append(h.buf, "m0"...)
			return
		}
		h.buf = append(strconv.AppendInt(append(h.buf, 'm'), int64(v.Len()), 10), '{')
		h.sortedEntries(p.key, p.elem, v, reflect.Value{})
		h.buf = append(h.buf, '}')
	case opStruct:
		h.buf = append(h.buf, p.header...)
		for i := range p.fields {
			f := &p.fields[i]
			h.buf = append(h.buf, f.label...)
			switch f.role {
			case roleSharers:
				h.buf = strconv.AppendUint(append(h.buf, 'u'), h.renameSharers(v.Field(f.index).Uint()), 10)
			case roleOwner:
				ow := v.Field(f.index)
				h.buf = append(h.buf, "a["...)
				for w := 0; w < ow.Len(); w++ {
					h.buf = append(strconv.AppendInt(append(h.buf, 'i'), h.mapID(ow.Index(w).Int()), 10), ',')
				}
				h.buf = append(h.buf, ']')
			case rolePlain:
				h.walk(f.plan, v.Field(f.index))
			}
			h.buf = append(h.buf, ';')
		}
		h.buf = append(h.buf, '}')
	case opMSHR:
		// Live entries only, sorted by line. Slot indices, the free bitmap,
		// and stale content left in freed slots are allocation-history
		// artifacts: two interleavings that reach the same set of
		// outstanding transactions may place them in different slots.
		byLine := v.Field(p.byLine)
		h.buf = append(strconv.AppendInt(append(h.buf, "mshr"...), int64(byLine.Len()), 10), '{')
		h.sortedEntries(p.key, p.elem, byLine, v.Field(p.slots))
		h.buf = append(h.buf, '}')
	case opWriteBuffer:
		// Live entries in FIFO (seq) order. Emission order captures the
		// protocol-visible age ordering; the raw seq stamps, nextSeq
		// counter, slot indices and occupancy bitmaps all advance with
		// interleaving history without changing protocol state.
		byLine, slots := v.Field(p.byLine), v.Field(p.slots)
		base := len(h.lives)
		iter := byLine.MapRange()
		for iter.Next() {
			idx := int(iter.Value().Int())
			h.lives = append(h.lives, wbLive{slot(slots, idx).Field(p.seq).Uint(), idx})
		}
		lives := h.lives[base:]
		slices.SortFunc(lives, func(a, b wbLive) int { return cmp.Compare(a.seq, b.seq) })
		h.buf = append(strconv.AppendInt(append(h.buf, "wb"...), int64(len(lives)), 10), '{')
		for _, l := range lives {
			e := slot(slots, l.idx)
			for i := range p.fields {
				h.walk(p.fields[i].plan, e.Field(p.fields[i].index))
				h.buf = append(h.buf, ';')
			}
			h.buf = append(h.buf, '|')
		}
		h.buf = append(h.buf, '}')
		h.lives = h.lives[:base]
	}
}

// elems appends the n elements of a slice or array, each followed by ','.
func (h *hasher) elems(p *typePlan, v reflect.Value, n int) {
	for i := 0; i < n; i++ {
		h.walk(p, v.Index(i))
		h.buf = append(h.buf, ',')
	}
	h.buf = append(h.buf, ']')
}

// sortedEntries appends map m's entries as "key:value;" in byte order of
// their encodings. With slots valid, m maps keys to slot indices and an
// entry's value is the indexed slot (the MSHR encoding). Entries are
// encoded in place, then reordered through tmp.
func (h *hasher) sortedEntries(key, val *typePlan, m, slots reflect.Value) {
	start, base := len(h.buf), len(h.spans)
	iter := m.MapRange()
	for iter.Next() {
		lo := len(h.buf)
		h.walk(key, iter.Key())
		h.buf = append(h.buf, ':')
		if slots.IsValid() {
			h.walk(val, slot(slots, int(iter.Value().Int())))
		} else {
			h.walk(val, iter.Value())
		}
		h.spans = append(h.spans, span{lo, len(h.buf)})
	}
	spans := h.spans[base:]
	slices.SortFunc(spans, func(a, b span) int {
		return bytes.Compare(h.buf[a.lo:a.hi], h.buf[b.lo:b.hi])
	})
	h.tmp = append(h.tmp[:0], h.buf[start:]...)
	h.buf = h.buf[:start]
	for _, s := range spans {
		h.buf = append(append(h.buf, h.tmp[s.lo-start:s.hi-start]...), ';')
	}
	h.spans = h.spans[:base]
}

// slot returns entry i of an MSHR or WriteBuffer slot array, which is
// allocated in chunks ([][]T): every chunk but the last holds as many
// slots as the first.
func slot(chunks reflect.Value, i int) reflect.Value {
	n := chunks.Index(0).Len()
	return chunks.Index(i / n).Index(i % n)
}

// renameSharers permutes the device bits of an LLC sharer bitset.
func (h *hasher) renameSharers(old uint64) uint64 {
	var renamed uint64
	for d := 0; d < len(h.idmap); d++ {
		if old&(1<<d) != 0 {
			renamed |= 1 << uint(h.idmap[d])
		}
	}
	return renamed | old&^(1<<uint(len(h.idmap))-1)
}

// fnvPrime8 is the FNV prime to the 8th power mod 2⁶⁴: folding a byte
// zero-extended to 64 bits multiplies by the prime once per byte, and the
// seven zero bytes only multiply.
var fnvPrime8 = stats.FNVAdd(1, 0)

// fnv folds a canonical byte string into the 64-bit hash: exactly
// stats.FNVAdd(h, uint64(c)) for each byte c, at one multiply per byte.
func fnv(b []byte) uint64 {
	out := stats.FNVOffset()
	for _, c := range b {
		out = (out ^ uint64(c)) * fnvPrime8
	}
	return out
}

// structuralHash canonicalizes and hashes w with no device renaming and
// the pending pool in flat send order — the Reduction.Canon=false
// representation.
func (w *world) structuralHash(h *hasher) uint64 {
	h.reset(nil)
	for _, llc := range w.llcs {
		h.root(llc)
	}
	h.root(w.mem)
	h.root(w.pending)
	for _, d := range w.devs {
		h.root(d)
	}
	return fnv(h.buf)
}

// hashWithPerm computes the canonical hash of w under one device renaming:
// idmap[i] is the canonical identity of device i, inv its inverse. The
// pending pool is serialized per renamed (src, dst) FIFO with pairs
// sorted, and devices are walked in canonical order, so two worlds equal
// up to a renaming of interchangeable devices produce identical byte
// strings.
func (w *world) hashWithPerm(h *hasher, idmap, inv []int8) uint64 {
	h.reset(idmap)
	for _, llc := range w.llcs {
		h.root(llc)
	}
	h.root(w.mem)

	// Pending, per renamed (src, dst) FIFO in send order. The flat
	// interleaving of different pairs is unobservable: only per-pair heads
	// are ever deliverable.
	h.pend = h.pend[:0]
	for k, m := range w.pending {
		h.pend = append(h.pend, pendingMsg{h.mapID(int64(m.Src)), h.mapID(int64(m.Dst)), k})
	}
	slices.SortFunc(h.pend, func(a, b pendingMsg) int {
		return cmp.Or(cmp.Compare(a.src, b.src), cmp.Compare(a.dst, b.dst), cmp.Compare(a.k, b.k))
	})
	msg := planFor(messageType)
	for i, e := range h.pend {
		if i == 0 || e.src != h.pend[i-1].src || e.dst != h.pend[i-1].dst {
			if i > 0 {
				h.buf = append(h.buf, ']')
			}
			h.buf = append(strconv.AppendInt(append(h.buf, 'q'), e.src, 10), '>')
			h.buf = append(strconv.AppendInt(h.buf, e.dst, 10), '[')
		}
		h.walk(msg, reflect.ValueOf(w.pending[e.k]).Elem())
		h.buf = append(h.buf, ',')
	}
	if len(h.pend) > 0 {
		h.buf = append(h.buf, ']')
	}
	h.buf = append(h.buf, '|')

	// Devices in canonical order: position j holds the device renamed to j.
	for j := range w.devs {
		h.root(w.devs[inv[j]])
	}
	return fnv(h.buf)
}
