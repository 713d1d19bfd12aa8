// Command spandex-metrics runs one (workload, config) cell with the
// metrics engine enabled and renders the system-level telemetry the trace
// tools don't show: per-link utilization timelines, LLC set conflicts and
// queue occupancy, DRAM row traffic, and per-line sharing/contention
// history with an address-space heatmap.
//
// Usage:
//
//	spandex-metrics -workload indirection -config SDD            # summary tables
//	spandex-metrics -mode timeline                               # utilization sparklines
//	spandex-metrics -mode lines -top 20                          # most contended lines
//	spandex-metrics -mode heatmap                                # address-space heat (text)
//	spandex-metrics -mode heatmap -format dot -o heat.dot        # Graphviz heatmap
//	spandex-metrics -mode export -format jsonl -o metrics.jsonl  # machine-readable dump
//	spandex-metrics -mode validate -in metrics.jsonl             # check an export
//
// Metrics collection is passive: the instrumented run's
// Result.Fingerprint is bit-identical to an uninstrumented run's.
package main

import (
	"flag"
	"fmt"
	"io"
	"sort"

	"spandex"
	"spandex/internal/cli"
)

const prog = "spandex-metrics"

func main() {
	mode := flag.String("mode", "summary", "summary | timeline | lines | heatmap | export | validate")
	cell := cli.CellFlags("indirection", true)
	out := flag.String("o", "", "output file (default stdout)")
	in := flag.String("in", "", "input metrics file (validate mode)")
	format := flag.String("format", "text", "heatmap: text|dot|csv; export: jsonl|csv")
	top := flag.Int("top", 10, "lines mode: how many lines/sets/rows to show")
	cols := flag.Int("cols", 64, "timeline/heatmap width in columns")
	flag.Parse()

	if *mode == "validate" {
		var counts map[string]int
		err := cli.Validate(*in, "metrics.jsonl", func(r io.Reader) (err error) {
			counts, err = spandex.ValidateMetricsJSONL(r)
			return err
		})
		if err != nil {
			cli.Fatal(prog, err)
		}
		kinds := make([]string, 0, len(counts))
		total := 0
		for k, n := range counts {
			kinds = append(kinds, k)
			total += n
		}
		sort.Strings(kinds)
		fmt.Printf("%s: well-formed metrics export, %d records (", *in, total)
		for i, k := range kinds {
			if i > 0 {
				fmt.Print(", ")
			}
			fmt.Printf("%s %d", k, counts[k])
		}
		fmt.Println(")")
		return
	}

	// Pick the renderer before the run and before -o is created, so a bad
	// mode or format neither simulates the cell nor empties the output file.
	var render func(w io.Writer, res spandex.Result) error
	switch *mode {
	case "summary":
		render = func(w io.Writer, res spandex.Result) error {
			fmt.Fprintf(w, "%s/%s seed %d  exec %.3f ms\n\n", cell.Workload, cell.Config, cell.Seed, res.ExecMillis())
			res.Metrics.RenderSummary(w)
			return nil
		}

	case "timeline":
		render = func(w io.Writer, res spandex.Result) error {
			fmt.Fprintf(w, "%s/%s utilization timelines (full run, %d cols)\n\n", cell.Workload, cell.Config, *cols)
			res.Metrics.RenderTimeline(w, *cols)
			return nil
		}

	case "lines":
		render = func(w io.Writer, res spandex.Result) error {
			res.Metrics.RenderTopLines(w, *top)
			return nil
		}

	case "heatmap":
		switch *format {
		case "text":
			render = func(w io.Writer, res spandex.Result) error {
				res.Metrics.RenderHeatmap(w, *cols)
				return nil
			}
		case "dot":
			render = func(w io.Writer, res spandex.Result) error { return res.Metrics.WriteHeatmapDOT(w) }
		case "csv":
			render = func(w io.Writer, res spandex.Result) error { return res.Metrics.WriteHeatmapCSV(w) }
		default:
			cli.Fatal(prog, fmt.Errorf("unknown heatmap format %q (valid: text, dot, csv)", *format))
		}

	case "export":
		switch *format {
		case "jsonl", "text":
			render = func(w io.Writer, res spandex.Result) error { return res.Metrics.WriteJSONL(w) }
		case "csv":
			render = func(w io.Writer, res spandex.Result) error { return res.Metrics.WriteCSV(w) }
		default:
			cli.Fatal(prog, fmt.Errorf("unknown export format %q (valid: jsonl, csv)", *format))
		}

	default:
		cli.Fatal(prog, fmt.Errorf("unknown mode %q (valid: summary, timeline, lines, heatmap, export, validate)", *mode))
	}

	w, opt, err := cell.Resolve(spandex.Options{Metrics: spandex.AllMetrics()})
	if err != nil {
		cli.Fatal(prog, err)
	}
	res, err := spandex.Run(w, opt)
	if err != nil {
		cli.Fatal(prog, err)
	}
	if res.Metrics == nil {
		cli.Fatal(prog, fmt.Errorf("run produced no metrics report"))
	}
	f, err := cli.Create(*out)
	if err != nil {
		cli.Fatal(prog, err)
	}
	if err := render(f, res); err != nil {
		cli.Fatal(prog, err)
	}
	if err := f.Close(); err != nil {
		cli.Fatal(prog, err)
	}
}
