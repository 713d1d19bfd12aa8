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
	"spandex/internal/memaddr"
)

func main() {
	mode := flag.String("mode", "summarize", "summarize | jsonl | export | validate")
	workloadName := flag.String("workload", "indirection", "workload to run (see spandex-bench)")
	configName := flag.String("config", "SDD", "cache configuration (Table V name)")
	seed := flag.Uint64("seed", 42, "workload input seed")
	fast := flag.Bool("fast", true, "use the shrunken FastParams system (full Table VI otherwise)")
	out := flag.String("o", "", "output file (jsonl/export modes; default stdout)")
	in := flag.String("in", "", "input trace file (validate mode)")
	addrFlag := flag.String("addr", "", "jsonl mode: keep only events touching this address's cache line (e.g. 0x10000)")
	summaryOut := flag.String("summary-out", "", "summarize mode: append this run's measurement summary (JSONL) for later -diff")
	diffPath := flag.String("diff", "", "summarize mode: diff this run against a summary JSONL written by -summary-out")
	flag.Parse()

	die := func(err error) {
		fmt.Fprintln(os.Stderr, "spandex-trace:", err)
		os.Exit(1)
	}

	if *mode == "validate" {
		if *in == "" {
			die(fmt.Errorf("validate mode needs -in <trace.json>"))
		}
		f, err := os.Open(*in)
		if err != nil {
			die(err)
		}
		defer f.Close()
		if err := spandex.ValidateChromeTrace(f); err != nil {
			die(fmt.Errorf("%s: %w", *in, err))
		}
		fmt.Printf("%s: well-formed Chrome trace\n", *in)
		return
	}

	w, err := spandex.WorkloadByName(*workloadName)
	if err != nil {
		die(err)
	}
	opt := spandex.Options{
		ConfigName:     *configName,
		Seed:           *seed,
		TraceLatency:   true,
		TraceOccupancy: true,
	}
	if *fast {
		p := spandex.FastParams()
		opt.Params = &p
	}

	output := func() *os.File {
		if *out == "" {
			return os.Stdout
		}
		f, err := os.Create(*out)
		if err != nil {
			die(err)
		}
		return f
	}

	switch *mode {
	case "summarize":
		res, err := spandex.Run(w, opt)
		if err != nil {
			die(err)
		}
		fmt.Print(spandex.RenderLatency(res))
		sum := spandex.Summarize(res, *seed)
		if *diffPath != "" {
			f, err := os.Open(*diffPath)
			if err != nil {
				die(err)
			}
			base, err := spandex.ReadSummaryJSONL(f)
			f.Close()
			if err != nil {
				die(fmt.Errorf("%s: %w", *diffPath, err))
			}
			match, err := spandex.MatchSummary(base, *workloadName, *configName, *seed)
			if err != nil {
				die(fmt.Errorf("%s: %w", *diffPath, err))
			}
			fmt.Println()
			fmt.Print(spandex.DiffSummaries(match, sum))
		}
		if *summaryOut != "" {
			f, err := os.OpenFile(*summaryOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				die(err)
			}
			if err := spandex.WriteSummaryJSONL(f, sum); err != nil {
				die(err)
			}
			if err := f.Close(); err != nil {
				die(err)
			}
			fmt.Fprintf(os.Stderr, "spandex-trace: summary appended to %s\n", *summaryOut)
		}

	case "jsonl":
		f := output()
		sink := spandex.NewJSONLTraceSink(f)
		var traceSink spandex.TraceEventSink = sink
		if *addrFlag != "" {
			a, err := strconv.ParseUint(*addrFlag, 0, 64)
			if err != nil {
				die(fmt.Errorf("bad -addr %q: %w", *addrFlag, err))
			}
			line := memaddr.Addr(a).Line()
			traceSink = spandex.TraceFuncSink(func(ev spandex.TraceEvent) {
				switch {
				case ev.Msg != nil && ev.Msg.Line == line:
				case ev.Msg == nil && ev.Addr != 0 && ev.Addr.Line() == line:
				default:
					return
				}
				sink.Event(ev)
			})
		}
		opt.TraceSink = traceSink
		if _, err := spandex.Run(w, opt); err != nil {
			die(err)
		}
		if err := sink.Close(); err != nil {
			die(err)
		}
		if f != os.Stdout {
			if err := f.Close(); err != nil {
				die(err)
			}
		}

	case "export":
		sink := spandex.NewChromeTraceSink()
		opt.TraceSink = sink
		res, err := spandex.Run(w, opt)
		if err != nil {
			die(err)
		}
		f := output()
		if err := sink.Close(f); err != nil {
			die(err)
		}
		if f != os.Stdout {
			if err := f.Close(); err != nil {
				die(err)
			}
			fmt.Fprintf(os.Stderr, "spandex-trace: %s/%s timeline (%d requests, exec %.3f ms) -> %s\n",
				*workloadName, *configName, res.Latency.Requests, res.ExecMillis(), *out)
		}

	default:
		die(fmt.Errorf("unknown mode %q (valid: summarize, jsonl, export, validate)", *mode))
	}
}
