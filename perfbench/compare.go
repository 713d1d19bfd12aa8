package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// runLog is one benchmark run read back from its saved output.
type runLog struct {
	path     string
	workload string
	seed     uint64
	trace    bool
	host     hostStamp
	metrics  map[string]float64
}

// parseRunLog reads the header, host stamp and metric lines of one run's
// output.
func parseRunLog(path string, r io.Reader) (*runLog, error) {
	l := &runLog{path: path, metrics: map[string]float64{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	header, hostSeen := false, false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 {
			continue
		}
		switch f[0] {
		case "perfbench":
			for _, kv := range f[1:] {
				k, v, _ := strings.Cut(kv, "=")
				switch k {
				case "workload":
					l.workload = v
				case "seed":
					l.seed, _ = strconv.ParseUint(v, 10, 64)
				case "trace":
					l.trace = v == "1"
				}
			}
			header = true
		case "host":
			if err := json.Unmarshal([]byte(strings.TrimPrefix(sc.Text(), "host ")), &l.host); err != nil {
				return nil, fmt.Errorf("%s: host stamp: %w", path, err)
			}
			hostSeen = true
		case "metric":
			if len(f) >= 3 {
				v, err := strconv.ParseFloat(f[2], 64)
				if err != nil {
					return nil, fmt.Errorf("%s: metric %s: %w", path, f[1], err)
				}
				l.metrics[f[1]] = v
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if !header || !hostSeen {
		return nil, fmt.Errorf("%s: not a perfbench run log (no header or host line)", path)
	}
	return l, nil
}

// loadLogs reads every run log named by args: files, or directories whose
// regular files are all run logs.
func loadLogs(args []string) ([]*runLog, error) {
	var out []*runLog
	for _, a := range args {
		paths := []string{a}
		if st, err := os.Stat(a); err == nil && st.IsDir() {
			ents, err := os.ReadDir(a)
			if err != nil {
				return nil, err
			}
			paths = paths[:0]
			for _, e := range ents {
				if e.Type().IsRegular() {
					paths = append(paths, filepath.Join(a, e.Name()))
				}
			}
		}
		for _, p := range paths {
			f, err := os.Open(p)
			if err != nil {
				return nil, err
			}
			l, err := parseRunLog(p, f)
			f.Close()
			if err != nil {
				return nil, err
			}
			out = append(out, l)
		}
	}
	return out, nil
}

// verdict judges one end-to-end metric on one workload, by the paired
// rule: a gain needs the change to win at least nine tenths of the pairs
// and the medians to differ by more than the parent's quartile spread; a
// loss is a median worse by more than the bound; when either side's
// spread exceeds the bound the metric is unresolved, unless every change
// run beats every parent run. A deterministic metric is "same" when every
// pair is equal and "CHANGED" otherwise.
type verdict struct {
	workload, metric string
	base, change     []float64
	medB, q1B, q3B   float64
	medC, q1C, q3C   float64
	wins, pairs      int
	delta            float64 // (medC - medB) / |medB|
	verdict          string
}

func judge(workload, metric string, g metricDef, base, change map[uint64][]float64) verdict {
	v := verdict{workload: workload, metric: metric}
	for _, xs := range base {
		v.base = append(v.base, xs...)
	}
	for _, xs := range change {
		v.change = append(v.change, xs...)
	}
	v.medB, v.medC = median(v.base), median(v.change)
	v.q1B, v.q3B = quartiles(v.base)
	v.q1C, v.q3C = quartiles(v.change)
	better := func(c, b float64) bool {
		if g.better == "lower" {
			return c < b
		}
		return c > b
	}
	// Pairs are runs of the same seed, taken in order.
	changed := false
	for seed, bs := range base {
		cs := change[seed]
		for i := 0; i < len(bs) && i < len(cs); i++ {
			v.pairs++
			if better(cs[i], bs[i]) {
				v.wins++
			}
			changed = changed || cs[i] != bs[i]
		}
	}
	scale := math.Abs(v.medB)
	if scale == 0 {
		scale = 1
	}
	v.delta = (v.medC - v.medB) / scale
	worse := -v.delta
	if g.better == "lower" {
		worse = v.delta
	}
	spreadB := (v.q3B - v.q1B) / scale
	spreadC := (v.q3C - v.q1C) / math.Max(math.Abs(v.medC), 1e-300)
	allBetter := len(v.base) > 0 && len(v.change) > 0
	for _, c := range v.change {
		for _, b := range v.base {
			allBetter = allBetter && better(c, b)
		}
	}
	gain := v.pairs > 0 && float64(v.wins) >= 0.9*float64(v.pairs) &&
		math.Abs(v.medC-v.medB) > v.q3B-v.q1B && better(v.medC, v.medB)
	switch {
	case g.bound == 0 && v.pairs == 0:
		v.verdict = "unpaired"
	case g.bound == 0 && changed:
		v.verdict = "CHANGED"
	case g.bound == 0:
		v.verdict = "same"
	case spreadB > g.bound || spreadC > g.bound:
		if allBetter {
			v.verdict = "better"
		} else {
			v.verdict = "unresolved"
		}
	case worse > g.bound:
		v.verdict = "WORSE"
	case gain:
		v.verdict = "better"
	default:
		v.verdict = "same"
	}
	return v
}

// compareMain implements "perfbench compare BASE... -- CHANGE...": it
// reads two sets of saved run outputs (parent and change, same benchmark
// code), refuses them unless every run comes from the same host, then
// prints a verdict per end-to-end metric and workload and a per-layer
// delta table sorted by the largest move. It exits 1 when any end-to-end
// metric is worse by more than its bound or a deterministic one changed.
func compareMain(args []string, w io.Writer) int {
	sep := -1
	for i, a := range args {
		if a == "--" {
			sep = i
		}
	}
	if sep <= 0 || sep == len(args)-1 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare BASE_LOG_OR_DIR... -- CHANGE_LOG_OR_DIR...")
		return 2
	}
	base, err := loadLogs(args[:sep])
	if err == nil {
		var change []*runLog
		change, err = loadLogs(args[sep+1:])
		if err == nil {
			return compareLogs(base, change, w)
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench compare:", err)
	return 2
}

func compareLogs(base, change []*runLog, w io.Writer) int {
	all := append(append([]*runLog{}, base...), change...)
	if len(base) == 0 || len(change) == 0 {
		fmt.Fprintln(os.Stderr, "perfbench compare: each side needs at least one run")
		return 2
	}
	for _, l := range all[1:] {
		if err := all[0].host.sameHost(l.host); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench compare: %s and %s were taken on different hosts (%v); refusing to compare\n",
				all[0].path, l.path, err)
			return 2
		}
	}
	fmt.Fprintf(w, "base git %s, change git %s, host %s, nproc %d, GOMAXPROCS %d, %s\n",
		base[0].host.Git, change[0].host.Git, all[0].host.CPU, all[0].host.NProc, all[0].host.GOMAXPROCS, all[0].host.Go)

	type key struct{ workload, metric string }
	collect := func(logs []*runLog, traced bool) map[key]map[uint64][]float64 {
		out := map[key]map[uint64][]float64{}
		for _, l := range logs {
			if l.trace != traced {
				continue
			}
			for m, v := range l.metrics {
				k := key{l.workload, m}
				if out[k] == nil {
					out[k] = map[uint64][]float64{}
				}
				out[k][l.seed] = append(out[k][l.seed], v)
			}
		}
		return out
	}

	status := 0
	eb, ec := collect(base, false), collect(change, false)
	var keys []key
	for k := range eb {
		if _, ok := endToEndDef(k.metric); ok && ec[k] != nil {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return workloadRank(keys[i].workload) < workloadRank(keys[j].workload)
		}
		return keys[i].metric < keys[j].metric
	})
	if len(keys) > 0 {
		fmt.Fprintf(w, "\n%-9s %-21s %11s %23s %11s %23s %8s %6s %5s  %s\n",
			"workload", "metric", "base med", "base q1..q3", "change med", "change q1..q3", "delta", "wins", "bound", "verdict")
	}
	for _, k := range keys {
		g, _ := endToEndDef(k.metric)
		v := judge(k.workload, k.metric, g, eb[k], ec[k])
		if v.verdict == "WORSE" || v.verdict == "CHANGED" {
			status = 1
		}
		fmt.Fprintf(w, "%-9s %-21s %11.5g %11.5g..%-11.5g %11.5g %11.5g..%-11.5g %+7.2f%% %2d/%-3d %4.0f%%  %s\n",
			v.workload, v.metric, v.medB, v.q1B, v.q3B, v.medC, v.q1C, v.q3C, 100*v.delta,
			v.wins, v.pairs, 100*g.bound, v.verdict)
	}

	lb, lc := collect(base, true), collect(change, true)
	type move struct {
		k         key
		b, c, rel float64
	}
	var moves []move
	for k, bs := range lb {
		cs := lc[k]
		if cs == nil {
			continue
		}
		var bv, cv []float64
		for _, xs := range bs {
			bv = append(bv, xs...)
		}
		for _, xs := range cs {
			cv = append(cv, xs...)
		}
		mb, mc := median(bv), median(cv)
		if mb == mc {
			continue
		}
		rel := math.Inf(1)
		if mb != 0 {
			rel = (mc - mb) / math.Abs(mb)
		}
		moves = append(moves, move{k, mb, mc, rel})
	}
	sort.Slice(moves, func(i, j int) bool {
		ai, aj := math.Abs(moves[i].rel), math.Abs(moves[j].rel)
		if ai != aj {
			return ai > aj
		}
		if moves[i].k.workload != moves[j].k.workload {
			return moves[i].k.workload < moves[j].k.workload
		}
		return moves[i].k.metric < moves[j].k.metric
	})
	if len(moves) > 0 {
		fmt.Fprintf(w, "\nper-layer medians that moved (traced runs), largest first:\n")
		fmt.Fprintf(w, "%-9s %-28s %13s %13s %9s\n", "workload", "metric", "base", "change", "delta")
	}
	for _, m := range moves {
		fmt.Fprintf(w, "%-9s %-28s %13.6g %13.6g %+8.2f%%\n", m.k.workload, m.k.metric, m.b, m.c, 100*m.rel)
	}
	return status
}

func workloadRank(w string) int {
	for i, n := range workloadNames {
		if n == w {
			return i
		}
	}
	return len(workloadNames)
}
