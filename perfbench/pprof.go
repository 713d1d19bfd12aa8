package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the gzipped protobuf CPU profiles runtime/pprof
// writes (github.com/google/pprof/proto/profile.proto). It keeps only what
// the per-module CPU split needs: each sample's sample count and the
// function names (with source file) of its stack, leaf first, inlined
// frames expanded.

type frame struct {
	name, file string
}

type stackSample struct {
	count int64
	stack []frame // leaf first
}

// Field numbers from profile.proto.
const (
	pbProfileSample   = 2
	pbProfileLocation = 4
	pbProfileFunction = 5
	pbProfileStrings  = 6

	pbSampleLocation = 1
	pbSampleValue    = 2

	pbLocationID   = 1
	pbLocationLine = 4
	pbLineFunction = 1

	pbFunctionID   = 1
	pbFunctionName = 2
	pbFunctionFile = 4
)

// pbField is one decoded protobuf field: a varint value or a
// length-delimited payload.
type pbField struct {
	num    int
	varint uint64
	data   []byte
	bytes  bool
}

func pbVarint(b []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1, nil
		}
	}
	return 0, 0, errors.New("pprof: bad varint")
}

// pbFields splits a message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		b = b[n:]
		f := pbField{num: int(key >> 3)}
		switch key & 7 {
		case 0:
			f.varint, n, err = pbVarint(b)
			if err != nil {
				return nil, err
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errors.New("pprof: short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n, err := pbVarint(b)
			if err != nil {
				return nil, err
			}
			b = b[n:]
			if uint64(len(b)) < l {
				return nil, errors.New("pprof: short field")
			}
			f.data, f.bytes = b[:l], true
			b = b[l:]
		case 5:
			if len(b) < 4 {
				return nil, errors.New("pprof: short fixed32")
			}
			b = b[4:]
			continue
		default:
			return nil, fmt.Errorf("pprof: wire type %d", key&7)
		}
		out = append(out, f)
	}
	return out, nil
}

// pbUints reads a repeated integer field that may be packed or not.
func pbUints(f pbField) ([]uint64, error) {
	if !f.bytes {
		return []uint64{f.varint}, nil
	}
	var out []uint64
	for b := f.data; len(b) > 0; {
		v, n, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// parseCPUProfile decodes a runtime/pprof CPU profile into stacks.
func parseCPUProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	var strs []string
	type fn struct{ name, file uint64 }
	funcs := map[uint64]fn{}
	locs := map[uint64][]uint64{} // location id -> function ids, leaf first
	var samples []pbField
	for _, f := range top {
		switch f.num {
		case pbProfileStrings:
			strs = append(strs, string(f.data))
		case pbProfileSample:
			samples = append(samples, f)
		case pbProfileFunction:
			sub, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var id uint64
			var v fn
			for _, s := range sub {
				switch s.num {
				case pbFunctionID:
					id = s.varint
				case pbFunctionName:
					v.name = s.varint
				case pbFunctionFile:
					v.file = s.varint
				}
			}
			funcs[id] = v
		case pbProfileLocation:
			sub, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, s := range sub {
				switch s.num {
				case pbLocationID:
					id = s.varint
				case pbLocationLine:
					line, err := pbFields(s.data)
					if err != nil {
						return nil, err
					}
					for _, l := range line {
						if l.num == pbLineFunction {
							fns = append(fns, l.varint)
						}
					}
				}
			}
			locs[id] = fns
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := make([]stackSample, 0, len(samples))
	for _, f := range samples {
		sub, err := pbFields(f.data)
		if err != nil {
			return nil, err
		}
		var s stackSample
		for _, x := range sub {
			vals, err := pbUints(x)
			if err != nil {
				return nil, err
			}
			switch x.num {
			case pbSampleLocation:
				for _, loc := range vals {
					for _, fid := range locs[loc] {
						fn := funcs[fid]
						s.stack = append(s.stack, frame{name: str(fn.name), file: str(fn.file)})
					}
				}
			case pbSampleValue:
				// CPU profiles carry [samples, nanoseconds].
				if len(vals) > 0 && s.count == 0 {
					s.count = int64(vals[0])
				}
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// cpuBuckets are the exclusive buckets of the per-module CPU split, in
// report order: every internal module, the root spandex package, the
// runtime's coroutine, map, allocation and GC work, and the rest.
var cpuBuckets = []string{
	"sim", "workload", "coro", "device", "cache", "stats", "maps",
	"mesi", "denovo", "gpucoh", "hmesi", "core", "noc", "dram", "obs",
	"proto", "memaddr", "config", "detsort", "analysis",
	"mcheck", "conform", "spandex", "alloc", "gc", "other",
}

// cpuInclusive are shares counted over whole stacks, so they overlap the
// exclusive buckets: model-checker state fingerprinting and simulator
// engine construction.
var cpuInclusive = []string{"mcheck_hash", "sim_init"}

const modulePrefix = "spandex/internal/"

// gcFrames mark a sample as garbage-collector work wherever they appear
// in its stack (background marking and sweeping, or an allocation's
// mark assist).
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkDone",
	"runtime.gcMarkTermination", "runtime.GC", "runtime.markroot",
}

// classifyFrame names the bucket one frame belongs to, or "" for frames
// (other runtime and standard-library code) that inherit their caller's.
func classifyFrame(f frame) string {
	n := f.name
	switch {
	case strings.HasPrefix(n, "iter.Pull"), strings.HasPrefix(n, "runtime.coro"):
		return "coro"
	case strings.HasPrefix(n, "runtime.map"), strings.HasPrefix(n, "internal/runtime/maps."),
		strings.HasPrefix(n, "runtime.memhash"), strings.HasPrefix(n, "runtime.strhash"),
		strings.HasPrefix(n, "runtime.aeshash"):
		return "maps"
	case strings.HasPrefix(n, "runtime.mallocgc"), n == "runtime.newobject",
		n == "runtime.makeslice", n == "runtime.growslice", n == "runtime.newarray",
		n == "runtime.makemap", n == "runtime.makemap_small":
		return "alloc"
	case strings.HasPrefix(n, modulePrefix):
		mod := n[len(modulePrefix):]
		if i := strings.IndexAny(mod, "./"); i >= 0 {
			mod = mod[:i]
		}
		for _, b := range cpuBuckets {
			if b == mod {
				return mod
			}
		}
		return "other"
	case strings.HasPrefix(n, "spandex."):
		return "spandex"
	}
	return ""
}

// isHashFrame reports whether a frame is model-checker state
// fingerprinting: any mcheck function in fingerprint.go or named for
// hashing or fingerprinting.
func isHashFrame(f frame) bool {
	if !strings.HasPrefix(f.name, modulePrefix+"mcheck.") {
		return false
	}
	l := strings.ToLower(f.name)
	return strings.HasSuffix(f.file, "/fingerprint.go") ||
		strings.Contains(l, "hash") || strings.Contains(l, "fingerprint") ||
		strings.HasSuffix(l, ".fnv")
}

// cpuShares splits profile samples into the cpu.* shares. Each sample
// goes to exactly one exclusive bucket: "gc" when a GC frame appears
// anywhere in its stack, otherwise the first classified frame walking
// from the leaf towards the root, otherwise "other". So cpu.sim is the
// engine's own code plus the untracked runtime/library work it calls,
// while map lookups, allocation and coroutine switches it triggers land
// in cpu.maps, cpu.alloc and cpu.coro.
func cpuShares(samples []stackSample) (shares map[string]float64, total int64) {
	counts := map[string]int64{}
	for _, s := range samples {
		total += s.count
		bucket := ""
		hash, initFrame := false, false
		for _, f := range s.stack {
			for _, g := range gcFrames {
				if f.name == g {
					bucket = "gc"
				}
			}
			hash = hash || isHashFrame(f)
			initFrame = initFrame || f.name == modulePrefix+"sim.(*Engine).init"
		}
		if hash {
			counts["mcheck_hash"] += s.count
		}
		if initFrame {
			counts["sim_init"] += s.count
		}
		for _, f := range s.stack {
			if bucket != "" {
				break
			}
			bucket = classifyFrame(f)
		}
		if bucket == "" {
			bucket = "other"
		}
		counts[bucket] += s.count
	}
	shares = map[string]float64{}
	for _, b := range append(append([]string{}, cpuBuckets...), cpuInclusive...) {
		if total > 0 {
			shares[b] = float64(counts[b]) / float64(total)
		} else {
			shares[b] = 0
		}
	}
	return shares, total
}
