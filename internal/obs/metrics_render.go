package obs

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
)

// sparkBlocks are the eight block glyphs used for sparkline rendering.
var sparkBlocks = []rune("▁▂▃▄▅▆▇█")

// sparkline renders a series' bucket sums as a fixed-width sparkline.
// Buckets are resampled into cols columns (summing), then scaled to the
// column maximum; empty columns render as spaces.
func sparkline(s TimeSeries, cols int) string {
	if cols <= 0 || len(s.Points) == 0 {
		return ""
	}
	span := s.Last() + 1
	vals := make([]uint64, cols)
	for _, p := range s.Points {
		c := p.Index * cols / span
		if c >= cols {
			c = cols - 1
		}
		vals[c] += p.Sum
	}
	var max uint64
	for _, v := range vals {
		if v > max {
			max = v
		}
	}
	if max == 0 {
		return strings.Repeat(" ", cols)
	}
	var b strings.Builder
	for _, v := range vals {
		if v == 0 {
			b.WriteRune(' ')
			continue
		}
		lvl := int(v * uint64(len(sparkBlocks)-1) / max)
		b.WriteRune(sparkBlocks[lvl])
	}
	return b.String()
}

// fmtTicks renders a tick count as nanoseconds (1 tick = 1 ps).
func fmtTicks(t uint64) string {
	return fmt.Sprintf("%.1fns", float64(t)/1e3)
}

// RenderSummary writes the human-readable overview: per-link traffic,
// occupancy peaks, LLC contention totals, DRAM totals and line-table
// coverage.
func (r *MetricsReport) RenderSummary(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "bucket width\t%s (initial)\n", fmtTicks(r.BucketTicks))
	if len(r.Links) > 0 {
		fmt.Fprintf(tw, "\nlink\tmsgs\tbytes\tpeak B/win\tegress qd\tingress qd\n")
		for _, l := range r.Links {
			var peak uint64
			for _, p := range l.Egress.Points {
				if p.Sum > peak {
					peak = p.Sum
				}
			}
			fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%s\t%s\n",
				r.NodeName(l.Node), l.Msgs, l.Bytes, peak,
				fmtTicks(l.EgressBacklog.Total()), fmtTicks(l.IngressBacklog.Total()))
		}
	}
	if len(r.Occupancy) > 0 {
		fmt.Fprintf(tw, "\noccupancy\tpeak\tsamples\n")
		for _, o := range r.Occupancy {
			count, peak := o.Series.Samples()
			fmt.Fprintf(tw, "%s.%s\t%d\t%d\n", r.NodeName(o.Node), o.Res, peak, count)
		}
	}
	if r.LLC != nil {
		fmt.Fprintf(tw, "\nllc indirection\t%d fwds\n", r.LLC.Indirection.Total())
		fmt.Fprintf(tw, "llc revocations\t%d words\n", r.LLC.Revocations.Total())
		fmt.Fprintf(tw, "llc evictions\t%d lines\n", r.LLC.Evictions.Total())
		fmt.Fprintf(tw, "llc set conflicts\t%d stalls across %d sets\n",
			r.LLC.Conflicts.Total(), len(r.LLC.Sets))
	}
	if r.DRAM != nil {
		fmt.Fprintf(tw, "\ndram reads\t%d (%d B)\n", r.DRAM.Reads, r.DRAM.ReadBytes)
		fmt.Fprintf(tw, "dram writes\t%d (%d B)\n", r.DRAM.Writes, r.DRAM.WriteBytes)
		fmt.Fprintf(tw, "dram rows touched\t%d\n", len(r.DRAM.Rows))
	}
	if len(r.Lines) > 0 || r.LinesAgedOut > 0 {
		fmt.Fprintf(tw, "\nlines tracked\t%d (+%d aged out)\n", len(r.Lines), r.LinesAgedOut)
		fmt.Fprintf(tw, "regions touched\t%d × 4KiB\n", len(r.Regions))
	}
	tw.Flush()
}

// RenderTimeline writes one sparkline per telemetry series: link egress
// bandwidth and backlog, occupancy, LLC rates and DRAM bandwidth.
func (r *MetricsReport) RenderTimeline(w io.Writer, cols int) {
	if cols <= 0 {
		cols = 64
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	line := func(name string, s TimeSeries) {
		if len(s.Points) == 0 {
			return
		}
		end := uint64(s.Last()+1) * s.Width
		fmt.Fprintf(tw, "%s\t|%s|\ttotal %d, to %s\n", name, sparkline(s, cols), s.Total(), fmtTicks(end))
	}
	for _, l := range r.Links {
		line(r.NodeName(l.Node)+".egress", l.Egress)
		line(r.NodeName(l.Node)+".egressq", l.EgressBacklog)
		line(r.NodeName(l.Node)+".ingressq", l.IngressBacklog)
	}
	for _, o := range r.Occupancy {
		line(r.NodeName(o.Node)+"."+o.Res, o.Series)
	}
	if r.LLC != nil {
		line("llc.indirection", r.LLC.Indirection)
		line("llc.revocations", r.LLC.Revocations)
		line("llc.evictions", r.LLC.Evictions)
		line("llc.conflicts", r.LLC.Conflicts)
	}
	if r.DRAM != nil {
		line("dram.read", r.DRAM.Read)
		line("dram.write", r.DRAM.Write)
	}
	tw.Flush()
}

// RenderTopLines writes the top-n contended-lines table plus the top-n
// conflicted LLC sets and busiest DRAM rows.
func (r *MetricsReport) RenderTopLines(w io.Writer, n int) {
	if n <= 0 {
		n = 10
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	if lines := r.TopLines(n); len(lines) > 0 {
		fmt.Fprintf(tw, "line\tcontention\taccess\treqors\tchurn\towner\trevoke\tfwd\tmix\n")
		for _, l := range lines {
			var mix []string
			for _, k := range []string{"ReqV", "ReqS", "ReqWT", "ReqO", "ReqWB", "Atomic", "Probe", "Mem"} {
				if v := l.Mix[k]; v > 0 {
					mix = append(mix, fmt.Sprintf("%s:%d", k, v))
				}
			}
			fmt.Fprintf(tw, "%#x\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%s\n",
				l.Line, l.Contention(), l.Access, l.RequestorCount(),
				l.SharerChurn, l.OwnerMoves, l.Revokes, l.Forwards,
				strings.Join(mix, " "))
		}
	}
	if sets := r.TopSets(n); len(sets) > 0 {
		fmt.Fprintf(tw, "\nllc set\tconflicts\tevictions\n")
		for _, s := range sets {
			fmt.Fprintf(tw, "%d\t%d\t%d\n", s.Set, s.Conflicts, s.Evictions)
		}
	}
	if rows := r.TopRows(n); len(rows) > 0 {
		fmt.Fprintf(tw, "\ndram row\treads\twrites\n")
		for _, d := range rows {
			fmt.Fprintf(tw, "%d\t%d\t%d\n", d.Row, d.Reads, d.Writes)
		}
	}
	tw.Flush()
}

// RenderHeatmap writes the text address-space heatmap: one row per 4 KiB
// region, with an access-count bar scaled to the hottest region.
func (r *MetricsReport) RenderHeatmap(w io.Writer, cols int) {
	if cols <= 0 {
		cols = 40
	}
	var max uint64
	for _, rg := range r.Regions {
		if rg.Access > max {
			max = rg.Access
		}
	}
	if max == 0 {
		fmt.Fprintln(w, "no region accesses recorded")
		return
	}
	fmt.Fprintf(w, "address-space heatmap (%d regions × 4KiB, hottest = %d accesses)\n", len(r.Regions), max)
	for _, rg := range r.Regions {
		bar := int(rg.Access * uint64(cols) / max)
		if bar == 0 && rg.Access > 0 {
			bar = 1
		}
		fmt.Fprintf(w, "%#010x  %-*s %d\n", rg.Region<<regionShift, cols,
			strings.Repeat("█", bar), rg.Access)
	}
}

// WriteHeatmapDOT writes the heatmap as a Graphviz strip: one box per
// touched region, red-shaded by relative access intensity, chained in
// address order so `dot -Tsvg` lays them out as an address-space band.
func (r *MetricsReport) WriteHeatmapDOT(w io.Writer) error {
	var max uint64
	for _, rg := range r.Regions {
		if rg.Access > max {
			max = rg.Access
		}
	}
	if _, err := fmt.Fprintln(w, "digraph heatmap {"); err != nil {
		return err
	}
	fmt.Fprintln(w, "  rankdir=LR;")
	fmt.Fprintln(w, "  node [shape=box, style=filled, fontname=\"monospace\"];")
	for _, rg := range r.Regions {
		// Shade from white (cold) to red (hot) via the green/blue channels.
		level := 0xff
		if max > 0 {
			level = 0xff - int(rg.Access*0xff/max)
		}
		fmt.Fprintf(w, "  r%d [label=\"%#x\\n%d\", fillcolor=\"#ff%02x%02x\"];\n",
			rg.Region, rg.Region<<regionShift, rg.Access, level, level)
	}
	for i := 1; i < len(r.Regions); i++ {
		fmt.Fprintf(w, "  r%d -> r%d [style=invis];\n", r.Regions[i-1].Region, r.Regions[i].Region)
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

// WriteHeatmapCSV writes the heatmap as region,address,access rows.
func (r *MetricsReport) WriteHeatmapCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "region,address,access"); err != nil {
		return err
	}
	for _, rg := range r.Regions {
		if _, err := fmt.Fprintf(w, "%d,%#x,%d\n", rg.Region, rg.Region<<regionShift, rg.Access); err != nil {
			return err
		}
	}
	return nil
}
