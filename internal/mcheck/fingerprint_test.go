package mcheck

import (
	"reflect"
	"sort"
	"sync"
	"testing"

	"spandex/internal/proto"
	"spandex/internal/stats"
)

// fingerprintPin pins one scenario's hash values under one reduction mode:
// the initial state's fingerprint and an FNV digest of the sorted visited
// set. The values are load-bearing beyond state counts: fingerprint()
// keeps the renaming with the minimum hash, and sleep sets are stored in
// that renaming's coordinates, so a hasher that produced different (even
// equally discriminating) values could move transitions and sleep skips.
type fingerprintPin struct {
	pairing  Pairing
	scenario string
	red      Reduction
	heavy    bool // skipped under -short (the race lane)
	init     uint64
	states   int
	digest   uint64
}

var fingerprintPins = []fingerprintPin{
	{Pairing{ProtoMESI, ProtoGPU}, "mp", FullReduction(), false, 0xe9d91ab2487447d0, 38, 0x6d69ea9bbb7dc5bd},
	{Pairing{ProtoMESI, ProtoGPU}, "share", FullReduction(), false, 0xa9bee0f6b5a54fb3, 275, 0x5916a4d0432dbd8c},
	{Pairing{ProtoMESI, ProtoGPU}, "fan6", FullReduction(), true, 0x3dd584fec62b1f16, 222, 0xb6929493ccdb8487},
	{Pairing{ProtoMESI, ProtoDeNovo}, "bank-wb", FullReduction(), false, 0x6882e4687e44c0cf, 233, 0x5581a370c1c75661},
	{Pairing{ProtoMESI, ProtoGPU}, "mp", NoReduction(), false, 0x0e7c72d5cea4e88c, 72, 0x62b1cb21641a02aa},
	{Pairing{ProtoMESI, ProtoGPU}, "share", NoReduction(), false, 0x71a96631b3a57bef, 1697, 0x9d3b931bbdb68127},
}

// TestFingerprintPins holds the canonical hash to fixed values: the
// symmetry-minimized hash (FullReduction) and the flat structural hash
// (NoReduction) must both reproduce them exactly.
func TestFingerprintPins(t *testing.T) {
	for _, pin := range fingerprintPins {
		name := pin.pairing.String() + "/" + pin.scenario
		if pin.red.Canon {
			name += "/full"
		} else {
			name += "/none"
		}
		t.Run(name, func(t *testing.T) {
			if pin.heavy && testing.Short() {
				t.Skip("heavy scenario skipped under -short")
			}
			scn, err := ScenarioByName(pin.pairing, pin.scenario)
			if err != nil {
				t.Fatal(err)
			}
			if got := newWorld(scn, nil, pin.red).fingerprint(); got != pin.init {
				t.Errorf("initial fingerprint %#x, pinned %#x", got, pin.init)
			}
			res, set := exploreSet(scn, pin.red)
			if !res.Complete || res.Violation != nil {
				t.Fatalf("exploration incomplete or violating: %+v", res)
			}
			keys := make([]uint64, 0, len(set))
			for k := range set {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
			d := stats.FNVOffset()
			for _, k := range keys {
				d = stats.FNVAdd(d, k)
			}
			if len(keys) != pin.states || d != pin.digest {
				t.Errorf("visited set: %d states digest %#x, pinned %d states digest %#x",
					len(keys), d, pin.states, pin.digest)
			}
		})
	}
}

// TestPlanRejectsUnhashable asserts a kind the canonical encoding cannot
// represent fails when its plan is built, naming the field path, and that
// the failed build publishes nothing.
func TestPlanRejectsUnhashable(t *testing.T) {
	type point struct {
		id proto.NodeID
		x  float64
	}
	type holder struct{ points []point }
	for i := 0; i < 2; i++ {
		func() {
			defer func() {
				const want = "mcheck: unhashable float64 at mcheck.holder.points[].x"
				if r := recover(); r != want {
					t.Errorf("build %d: panic %v, want %q", i, r, want)
				}
			}()
			planFor(reflect.TypeFor[*holder]())
		}()
	}
}

// TestFingerprintConcurrent hashes from several goroutines at once while
// one of them compiles a type the plan cache has not seen: parallel
// Explore calls share the cache and the scratch pool (run under -race).
func TestFingerprintConcurrent(t *testing.T) {
	type fresh struct {
		id   proto.NodeID
		next *fresh
	}
	pin := fingerprintPins[1] // mesi+gpu/share, full reduction
	scn, err := ScenarioByName(pin.pairing, pin.scenario)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if g == 0 {
				planFor(reflect.TypeFor[*fresh]())
			}
			for i := 0; i < 20; i++ {
				if got := newWorld(scn, nil, pin.red).fingerprint(); got != pin.init {
					t.Errorf("goroutine %d: fingerprint %#x, pinned %#x", g, got, pin.init)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// fingerprintSink keeps BenchmarkFingerprint's result live.
var fingerprintSink uint64

// fan6Prefix is the length of BenchmarkFingerprint's action prefix: the
// CPU's store and fence, four GPU loads, three of their ReqVs reaching the
// LLC, and the LLC's memory read and its response, leaving five messages
// pending.
const fan6Prefix = 11

// BenchmarkFingerprint measures the model checker's state hashing: one
// canonical fingerprint (all 120 device renamings) of a fixed
// mid-exploration fan6 state. The state is reached by replaying a fixed
// action prefix that takes action i mod |enabled| at step i.
func BenchmarkFingerprint(b *testing.B) {
	scn, err := ScenarioByName(Pairing{CPU: ProtoMESI, GPU: ProtoGPU}, "fan6")
	if err != nil {
		b.Fatal(err)
	}
	w := newWorld(scn, nil, FullReduction())
	for i := 0; i < fan6Prefix; i++ {
		acts := w.enumActions()
		w.apply(acts[i%len(acts)].flat)
	}
	if len(w.pending) != 5 {
		b.Fatalf("prefix left %d messages pending, want 5", len(w.pending))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fingerprintSink = w.fingerprint()
	}
}
