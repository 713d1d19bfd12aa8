// Command spandex-trace runs one (workload, config) cell with the
// observability layer enabled and renders what happened: a latency
// attribution summary, a filtered JSONL event stream, or a Chrome
// trace-event timeline loadable in Perfetto (https://ui.perfetto.dev) or
// chrome://tracing.
//
// Usage:
//
//	spandex-trace -workload indirection -config SDD             # summarize
//	spandex-trace -summary-out base.jsonl                       # save a baseline summary
//	spandex-trace -diff base.jsonl                              # compare against a baseline
//	spandex-trace -mode export -o trace.json                    # Perfetto timeline
//	spandex-trace -mode jsonl -o events.jsonl -addr 0x10000     # event stream
//	spandex-trace -mode validate -in trace.json                 # check a trace file
//
// The summary's phase breakdown attributes each request's latency to
// network serialization, LLC service, LLC blocking (transient-state
// waits), owner indirection (forwarded requests), and DRAM — the
// mechanisms behind the paper's Figure 7 discussion. Tracing is passive:
// the traced run's Result.Fingerprint is bit-identical to a bare run's.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"spandex"
	"spandex/internal/cli"
	"spandex/internal/memaddr"
)

const prog = "spandex-trace"

func main() {
	mode := flag.String("mode", "summarize", "summarize | jsonl | export | validate")
	cell := cli.CellFlags("indirection", true)
	out := flag.String("o", "", "output file (jsonl/export modes; default stdout)")
	in := flag.String("in", "", "input trace file (validate mode)")
	addrFlag := flag.String("addr", "", "jsonl mode: keep only events touching this address's cache line (e.g. 0x10000)")
	summaryOut := flag.String("summary-out", "", "summarize mode: append this run's measurement summary (JSONL) for later -diff")
	diffPath := flag.String("diff", "", "summarize mode: diff this run against a summary JSONL written by -summary-out")
	flag.Parse()

	if *mode == "validate" {
		if err := cli.Validate(*in, "trace.json", spandex.ValidateChromeTrace); err != nil {
			cli.Fatal(prog, err)
		}
		fmt.Printf("%s: well-formed Chrome trace\n", *in)
		return
	}

	w, opt, err := cell.Resolve(spandex.Options{TraceLatency: true, TraceOccupancy: true})
	if err != nil {
		cli.Fatal(prog, err)
	}

	switch *mode {
	case "summarize":
		res, err := spandex.Run(w, opt)
		if err != nil {
			cli.Fatal(prog, err)
		}
		fmt.Print(spandex.RenderLatency(res))
		sum := spandex.Summarize(res, cell.Seed)
		if *diffPath != "" {
			f, err := os.Open(*diffPath)
			if err != nil {
				cli.Fatal(prog, err)
			}
			base, err := spandex.ReadSummaryJSONL(f)
			f.Close()
			if err != nil {
				cli.Fatal(prog, fmt.Errorf("%s: %w", *diffPath, err))
			}
			match, err := spandex.MatchSummary(base, cell.Workload, cell.Config, cell.Seed)
			if err != nil {
				cli.Fatal(prog, fmt.Errorf("%s: %w", *diffPath, err))
			}
			fmt.Println()
			fmt.Print(spandex.DiffSummaries(match, sum))
		}
		if *summaryOut != "" {
			f, err := os.OpenFile(*summaryOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				cli.Fatal(prog, err)
			}
			if err := spandex.WriteSummaryJSONL(f, sum); err != nil {
				cli.Fatal(prog, err)
			}
			if err := f.Close(); err != nil {
				cli.Fatal(prog, err)
			}
			fmt.Fprintf(os.Stderr, "spandex-trace: summary appended to %s\n", *summaryOut)
		}

	case "jsonl":
		// Parse -addr before -o is created, so a bad address leaves an
		// existing output file alone.
		var line memaddr.LineAddr
		if *addrFlag != "" {
			a, err := strconv.ParseUint(*addrFlag, 0, 64)
			if err != nil {
				cli.Fatal(prog, fmt.Errorf("bad -addr %q: %w", *addrFlag, err))
			}
			line = memaddr.Addr(a).Line()
		}
		f, err := cli.Create(*out)
		if err != nil {
			cli.Fatal(prog, err)
		}
		sink := spandex.NewJSONLTraceSink(f)
		opt.TraceSink = sink
		if *addrFlag != "" {
			opt.TraceSink = spandex.TraceFuncSink(func(ev spandex.TraceEvent) {
				switch {
				case ev.Msg != nil && ev.Msg.Line == line:
				case ev.Msg == nil && ev.Addr != 0 && ev.Addr.Line() == line:
				default:
					return
				}
				sink.Event(ev)
			})
		}
		if _, err := spandex.Run(w, opt); err != nil {
			cli.Fatal(prog, err)
		}
		if err := sink.Close(); err != nil {
			cli.Fatal(prog, err)
		}
		if err := f.Close(); err != nil {
			cli.Fatal(prog, err)
		}

	case "export":
		sink := spandex.NewChromeTraceSink()
		opt.TraceSink = sink
		res, err := spandex.Run(w, opt)
		if err != nil {
			cli.Fatal(prog, err)
		}
		f, err := cli.Create(*out)
		if err != nil {
			cli.Fatal(prog, err)
		}
		if err := sink.Close(f); err != nil {
			cli.Fatal(prog, err)
		}
		if err := f.Close(); err != nil {
			cli.Fatal(prog, err)
		}
		if *out != "" {
			fmt.Fprintf(os.Stderr, "spandex-trace: %s/%s timeline (%d requests, exec %.3f ms) -> %s\n",
				cell.Workload, cell.Config, res.Latency.Requests, res.ExecMillis(), *out)
		}

	default:
		cli.Fatal(prog, fmt.Errorf("unknown mode %q (valid: summarize, jsonl, export, validate)", *mode))
	}
}
