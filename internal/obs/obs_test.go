package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"spandex/internal/memaddr"
	"spandex/internal/proto"
)

func TestHistBuckets(t *testing.T) {
	var h Hist
	for _, v := range []uint64{0, 1, 2, 3, 4, 1000, 1 << 40} {
		h.Add(v)
	}
	if h.Count != 7 {
		t.Fatalf("count = %d", h.Count)
	}
	if h.Max != 1<<40 {
		t.Fatalf("max = %d", h.Max)
	}
	if h.Buckets[0] != 1 { // the zero observation
		t.Fatalf("bucket 0 = %d", h.Buckets[0])
	}
	if h.Buckets[2] != 2 { // 2 and 3 share [2,4)
		t.Fatalf("bucket 2 = %d", h.Buckets[2])
	}
	if want := float64(0+1+2+3+4+1000+1<<40) / 7; h.Mean() != want {
		t.Fatalf("mean = %f, want %f", h.Mean(), want)
	}
}

func TestHistQuantiles(t *testing.T) {
	var h Hist
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile not 0")
	}
	// 100 observations of 10 (bucket [8,16)) and one of 1000.
	for i := 0; i < 100; i++ {
		h.Add(10)
	}
	h.Add(1000)
	if q := h.Quantile(0.50); q != 15 {
		t.Fatalf("p50 = %d, want bucket upper bound 15", q)
	}
	if q := h.Quantile(1.0); q != h.Max {
		t.Fatalf("p100 = %d, want max %d", q, h.Max)
	}
	// Quantiles are monotone in q.
	prev := uint64(0)
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 1.0} {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantiles not monotone at q=%f: %d < %d", q, v, prev)
		}
		prev = v
	}
	// The max caps bucket upper bounds: a single large value reports
	// exactly, not its bucket's upper bound.
	var h2 Hist
	h2.Add(1000)
	if q := h2.Quantile(0.99); q != 1000 {
		t.Fatalf("single-value p99 = %d, want exact 1000", q)
	}
}

// emit drives a recorder with a shorthand event list.
func emit(r *Recorder, evs ...Event) {
	for _, ev := range evs {
		r.Emit(ev)
	}
}

// TestPhaseMachineLLCPath walks one request through issue → network →
// LLC (with a blocked interval) → DRAM → response and checks every tick
// lands in the right phase with an exact total.
func TestPhaseMachineLLCPath(t *testing.T) {
	llc := proto.NodeID(4)
	mem := proto.NodeID(5)
	r := New(Config{Latency: true, LLCNodes: []proto.NodeID{llc}, MemID: mem})
	tr := r.NextTrace()
	if tr != 1 {
		t.Fatalf("first trace id = %d", tr)
	}
	req := &proto.Message{Src: 0, Dst: llc}
	memRd := &proto.Message{Src: llc, Dst: mem}
	memRsp := &proto.Message{Src: mem, Dst: llc}
	rsp := &proto.Message{Src: llc, Dst: 0}
	emit(r,
		Event{At: 100, Kind: EvOpIssue, Node: 0, Trace: tr, Class: ClassLoad},  // L1: 100..150
		Event{At: 150, Kind: EvMsgSend, Node: 0, Trace: tr, Msg: req},          // Net: 150..400
		Event{At: 400, Kind: EvMsgDeliver, Node: llc, Trace: tr, Msg: req},     // LLC: 400..500
		Event{At: 500, Kind: EvLLCBlock, Node: llc, Trace: tr},                 // Blocked: 500..900
		Event{At: 900, Kind: EvLLCUnblock, Node: llc, Trace: tr},               // LLC: 900..1000
		Event{At: 1000, Kind: EvMsgSend, Node: llc, Trace: tr, Msg: memRd},     // DRAM: 1000..1600
		Event{At: 1600, Kind: EvMsgDeliver, Node: mem, Trace: tr, Msg: memRsp}, // DRAM (src=mem): wait, deliver at mem
		Event{At: 1600, Kind: EvMsgSend, Node: mem, Trace: tr, Msg: memRsp},    // DRAM: 1600..2200
		Event{At: 2200, Kind: EvMsgDeliver, Node: llc, Trace: tr, Msg: memRsp}, // LLC: 2200..2300
		Event{At: 2300, Kind: EvMsgSend, Node: llc, Trace: tr, Msg: rsp},       // Net: 2300..2800
		Event{At: 2800, Kind: EvMsgDeliver, Node: 0, Trace: tr, Msg: rsp},      // L1: 2800..3000
		Event{At: 3000, Kind: EvOpDone, Node: 0, Trace: tr, Class: ClassLoad},
	)
	rep := r.Report()
	if len(rep.Classes) != 1 || rep.Classes[0].Class != "load" {
		t.Fatalf("classes = %+v", rep.Classes)
	}
	c := rep.Classes[0]
	if c.TotalTicks != 2900 || c.Count != 1 {
		t.Fatalf("total = %d count = %d", c.TotalTicks, c.Count)
	}
	want := [NumPhases]uint64{
		PhaseL1:          50 + 200,
		PhaseNet:         250 + 500,
		PhaseLLC:         100 + 100 + 100,
		PhaseBlocked:     400,
		PhaseIndirection: 0,
		PhaseDRAM:        600 + 0 + 600,
	}
	if c.Phases != want {
		t.Fatalf("phases = %v, want %v", c.Phases, want)
	}
	if c.PhaseSum() != c.TotalTicks {
		t.Fatalf("phase sum %d != total %d", c.PhaseSum(), c.TotalTicks)
	}
	if rep.Unfinished != 0 || rep.Requests != 1 {
		t.Fatalf("unfinished=%d requests=%d", rep.Unfinished, rep.Requests)
	}
}

// TestPhaseMachineIndirection checks the owner-forwarding path: after
// EvLLCForward, time until the owner's response reaches the requestor is
// attributed to PhaseIndirection.
func TestPhaseMachineIndirection(t *testing.T) {
	llc := proto.NodeID(4)
	r := New(Config{Latency: true, LLCNodes: []proto.NodeID{llc}, MemID: 5})
	tr := r.NextTrace()
	req := &proto.Message{Src: 1, Dst: llc}
	fwd := &proto.Message{Src: llc, Dst: 2} // forwarded to owner node 2
	rsp := &proto.Message{Src: 2, Dst: 1}   // owner responds directly
	emit(r,
		Event{At: 0, Kind: EvOpIssue, Node: 1, Trace: tr, Class: ClassLoad},
		Event{At: 100, Kind: EvMsgSend, Node: 1, Trace: tr, Msg: req},      // Net 100..300
		Event{At: 300, Kind: EvMsgDeliver, Node: llc, Trace: tr, Msg: req}, // LLC 300..400
		Event{At: 400, Kind: EvLLCForward, Node: llc, Trace: tr, Msg: fwd}, // Ind 400..
		Event{At: 400, Kind: EvMsgSend, Node: llc, Trace: tr, Msg: fwd},
		Event{At: 700, Kind: EvMsgDeliver, Node: 2, Trace: tr, Msg: fwd},  // still Ind (owner L1)
		Event{At: 800, Kind: EvMsgSend, Node: 2, Trace: tr, Msg: rsp},     // still Ind
		Event{At: 1100, Kind: EvMsgDeliver, Node: 1, Trace: tr, Msg: rsp}, // L1 1100..1200
		Event{At: 1200, Kind: EvOpDone, Node: 1, Trace: tr, Class: ClassLoad},
	)
	c := r.Report().Classes[0]
	want := [NumPhases]uint64{
		PhaseL1:          100 + 100,
		PhaseNet:         200,
		PhaseLLC:         100,
		PhaseIndirection: 700,
	}
	if c.Phases != want {
		t.Fatalf("phases = %v, want %v", c.Phases, want)
	}
	if c.PhaseSum() != c.TotalTicks {
		t.Fatalf("phase sum %d != total %d", c.PhaseSum(), c.TotalTicks)
	}
}

// TestPhaseMachineIgnoresUntracked: zero-trace and stale-trace events must
// not corrupt live requests or crash.
func TestPhaseMachineIgnoresUntracked(t *testing.T) {
	r := New(Config{Latency: true, LLCNodes: []proto.NodeID{4}, MemID: 5})
	tr := r.NextTrace()
	emit(r,
		Event{At: 0, Kind: EvOpIssue, Node: 0, Trace: tr, Class: ClassStore},
		Event{At: 10, Kind: EvMsgSend, Node: 0, Trace: 0, Msg: &proto.Message{Src: 0, Dst: 4}},   // untracked
		Event{At: 20, Kind: EvMsgSend, Node: 0, Trace: 999, Msg: &proto.Message{Src: 0, Dst: 4}}, // unknown trace
		Event{At: 50, Kind: EvOpDone, Node: 0, Trace: tr, Class: ClassStore},
		Event{At: 60, Kind: EvLLCBlock, Node: 4, Trace: tr}, // stale: already finalized
	)
	rep := r.Report()
	if rep.Requests != 1 || rep.Unfinished != 0 {
		t.Fatalf("requests=%d unfinished=%d", rep.Requests, rep.Unfinished)
	}
	if c := rep.Classes[0]; c.TotalTicks != 50 || c.Phases[PhaseL1] != 50 {
		t.Fatalf("store latency misattributed: %+v", c)
	}
}

func TestJSONLSinkShape(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	s.Event(Event{At: 42, Kind: EvOpIssue, Node: 1, Trace: 7, Class: ClassAtomic, Addr: memaddr.Addr(0x1234)})
	s.Event(Event{At: 50, Kind: EvMsgSend, Node: 1, Trace: 7, Arg: 99,
		Msg: &proto.Message{Type: proto.ReqV, Src: 1, Dst: 4, Line: memaddr.LineAddr(0x10000 >> 6)}})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if rec["ev"] != "OpIssue" || rec["class"] != "atomic" || rec["addr"] != float64(0x1234) {
		t.Fatalf("issue record = %v", rec)
	}
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatalf("line 1 not JSON: %v", err)
	}
	if rec["msg"] != "ReqV" || rec["src"] != float64(1) || rec["dst"] != float64(4) {
		t.Fatalf("send record = %v", rec)
	}
}

// TestChromeSinkRoundTrip: a synthetic event stream exports to a trace
// that passes validation, with named tracks and closed slices.
func TestChromeSinkRoundTrip(t *testing.T) {
	s := NewChromeSink()
	s.SetNodeName(0, "cpu0")
	s.SetNodeName(4, "llc")
	msg := &proto.Message{Type: proto.ReqV, Src: 0, Dst: 4, Line: 1}
	s.Event(Event{At: 0, Kind: EvOpIssue, Node: 0, Trace: 1, Class: ClassLoad, Addr: 0x40})
	s.Event(Event{At: 100, Kind: EvMsgSend, Node: 0, Trace: 1, Msg: msg, Arg: 400})
	s.Event(Event{At: 400, Kind: EvLLCBlock, Node: 4, Trace: 1})
	s.Event(Event{At: 600, Kind: EvLLCUnblock, Node: 4, Trace: 1})
	s.Event(Event{At: 650, Kind: EvLLCForward, Node: 4, Trace: 1})
	s.Event(Event{At: 700, Kind: EvOccupancy, Node: 4, Res: "txn", Arg: 3})
	s.Event(Event{At: 900, Kind: EvOpDone, Node: 0, Trace: 1, Class: ClassLoad})
	// A slice deliberately left open: Close must close it at the last
	// timestamp so the file still validates.
	s.Event(Event{At: 950, Kind: EvOpIssue, Node: 0, Trace: 2, Class: ClassStore, Addr: 0x80})
	var buf bytes.Buffer
	if err := s.Close(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("round trip failed validation: %v", err)
	}
	out := buf.String()
	for _, frag := range []string{"cpu0", "llc", "process_name", `"ph":"C"`, "forward"} {
		if !strings.Contains(out, frag) {
			t.Errorf("trace missing %q", frag)
		}
	}
}

func TestValidateChromeTraceRejects(t *testing.T) {
	cases := map[string]string{
		"not json":         `{"traceEvents":`,
		"empty":            `{"traceEvents":[]}`,
		"missing ph":       `{"traceEvents":[{"name":"x","ts":0,"pid":0}]}`,
		"unknown ph":       `{"traceEvents":[{"name":"x","ph":"Z","ts":0,"pid":0}]}`,
		"end w/o begin":    `{"traceEvents":[{"name":"x","cat":"op","ph":"e","id":"t1","ts":1,"pid":0}]}`,
		"never closed":     `{"traceEvents":[{"name":"x","cat":"op","ph":"b","id":"t1","ts":0,"pid":0}]}`,
		"duplicate begin":  `{"traceEvents":[{"name":"x","cat":"op","ph":"b","id":"t1","ts":0,"pid":0},{"name":"x","cat":"op","ph":"b","id":"t1","ts":1,"pid":0}]}`,
		"end before begin": `{"traceEvents":[{"name":"x","cat":"op","ph":"b","id":"t1","ts":5,"pid":0},{"name":"x","cat":"op","ph":"e","id":"t1","ts":1,"pid":0}]}`,
	}
	for name, in := range cases {
		if err := ValidateChromeTrace(strings.NewReader(in)); err == nil {
			t.Errorf("%s: validation unexpectedly passed", name)
		}
	}
}

// TestRecorderDisabledPaths: with Latency off, events flow to the sink
// but no state accumulates.
func TestRecorderDisabledPaths(t *testing.T) {
	var seen int
	r := New(Config{Sink: FuncSink(func(Event) { seen++ })})
	tr := r.NextTrace()
	emit(r,
		Event{At: 0, Kind: EvOpIssue, Trace: tr, Class: ClassLoad},
		Event{At: 5, Kind: EvOccupancy, Node: 1, Res: "mshr", Arg: 1},
		Event{At: 9, Kind: EvOpDone, Trace: tr, Class: ClassLoad},
	)
	if seen != 3 {
		t.Fatalf("sink saw %d events", seen)
	}
	rep := r.Report()
	if rep.Requests != 0 {
		t.Fatalf("disabled recorder accumulated state: %+v", rep)
	}
}
