package spandex

import (
	"fmt"
	"io"

	"spandex/internal/config"
	"spandex/internal/obs"
)

// This file exposes the ready-made trace exporters (internal/obs) and the
// System-side niceties for them: a JSONL event stream, a Chrome
// trace-event (Perfetto-loadable) timeline, and per-node track naming.

// TraceFuncSink adapts a function into a TraceEventSink, for
// Options.TraceSink.
type TraceFuncSink = obs.FuncSink

// TraceMsgDeliver is the TraceEvent kind of a coherence message arriving
// at its destination node; the event's Msg is the delivered message.
const TraceMsgDeliver = obs.EvMsgDeliver

// JSONLTraceSink streams events as one JSON object per line.
type JSONLTraceSink = obs.JSONLSink

// ChromeTraceSink accumulates a Chrome trace-event timeline.
type ChromeTraceSink = obs.ChromeSink

// NewJSONLTraceSink returns a sink that writes one JSON object per event
// to w. Call Close to flush.
func NewJSONLTraceSink(w io.Writer) *JSONLTraceSink { return obs.NewJSONLSink(w) }

// NewChromeTraceSink returns a sink that accumulates a Chrome trace-event
// timeline (one track per node) loadable in Perfetto or chrome://tracing.
// Call Close(w) after the run to emit the JSON file.
func NewChromeTraceSink() *ChromeTraceSink { return obs.NewChromeSink() }

// ValidateChromeTrace checks that r holds a well-formed Chrome trace-event
// file: parseable JSON, non-empty, every async begin matched by an end on
// the same track with non-decreasing timestamps.
func ValidateChromeTrace(r io.Reader) error { return obs.ValidateChromeTrace(r) }

// nameNodes labels each simulated node on consumers that support naming
// (the Chrome exporter, the metrics registry), so tracks and reports read
// "cpu0"/"cu1"/"llc" instead of bare node numbers.
func (s *System) nameNodes(sink any) {
	n, ok := sink.(interface{ SetNodeName(int, string) })
	if !ok {
		return
	}
	p := s.params
	for i, id := range s.cpuIDs {
		n.SetNodeName(int(id), fmt.Sprintf("cpu%d", i))
	}
	for i, id := range s.gpuIDs {
		n.SetNodeName(int(id), fmt.Sprintf("cu%d", i))
	}
	nDev := p.NumDevices()
	if s.cfg.LLC == config.LLCHierarchicalMESI {
		n.SetNodeName(nDev, "gpuL2")
		n.SetNodeName(nDev+1, "dir")
		n.SetNodeName(nDev+2, "mem")
	} else {
		banks := p.Banks()
		if banks == 1 {
			n.SetNodeName(nDev, "llc")
		} else {
			for b := 0; b < banks; b++ {
				n.SetNodeName(nDev+b, fmt.Sprintf("llc%d", b))
			}
		}
		n.SetNodeName(nDev+banks, "mem")
	}
}
