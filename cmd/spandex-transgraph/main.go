// Command spandex-transgraph extracts each protocol controller's static
// transition graph — (state, incoming message) → (next states, emitted
// messages) — and keeps the checked-in copies under docs/transitions/
// honest against both the source (freshness) and reality (the dynamic
// coverage cross-check).
//
// Usage:
//
//	spandex-transgraph [packages]            # write JSON+DOT to -out
//	spandex-transgraph -check [packages]     # fail if docs/transitions is stale
//	spandex-transgraph -diff cov.json[,...]  # cross-check observed coverage
//
// Packages default to the protocol packages (core, mesi, denovo, gpucoh,
// hmesi). -diff compares coverage snapshots (written by spandex-mcheck
// -coverage-out or spandex-bench -coverage-out) against the LLC's
// annotated graph: an observed (state, message) pair missing from the
// static graph is an extraction bug and exits nonzero, as is an observed
// pair the source declares unreachable (a contradicted proof); static
// pairs never observed are classified as "proven unreachable" (covered by
// a //spandex:unreachable declaration) or "untested" (a real coverage
// hole).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"spandex/internal/analysis"
	"spandex/internal/analysis/transgraph"
	"spandex/internal/cli"
	"spandex/internal/core"
)

const prog = "spandex-transgraph"

// defaultPackages are the protocol packages with message-handling units.
var defaultPackages = []string{
	"./internal/core", "./internal/mesi", "./internal/denovo",
	"./internal/gpucoh", "./internal/hmesi",
}

// diffUnit is the unit the dynamic coverage recorder observes.
const diffUnit = "core-llc"

func main() {
	out := flag.String("out", "docs/transitions", "output directory for JSON+DOT graphs")
	check := flag.Bool("check", false, "verify the checked-in graphs match the source; write nothing")
	diff := flag.String("diff", "", "comma-separated coverage snapshots to cross-check against the "+diffUnit+" graph")
	graphFile := flag.String("graph", "", "graph JSON for -diff (default: <out>/"+diffUnit+".json)")
	flag.Parse()

	if *diff != "" {
		if *graphFile == "" {
			*graphFile = filepath.Join(*out, diffUnit+".json")
		}
		if err := runDiff(*graphFile, strings.Split(*diff, ",")); err != nil {
			cli.Fatal(prog, err)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = defaultPackages
	}
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		cli.Fatal(prog, err)
	}

	files := map[string][]byte{}
	for _, pkg := range pkgs {
		graphs, err := transgraph.Extract(pkg)
		if err != nil {
			cli.Fatal(prog, err)
		}
		for _, g := range graphs {
			files[filepath.Join(*out, g.Name()+".json")] = g.JSON()
			files[filepath.Join(*out, g.Name()+".dot")] = g.DOT()
			if !*check {
				fmt.Printf("%-16s %s: %d states, %d messages, %d transitions (%s)\n",
					g.Name(), g.Source, len(g.States), len(g.Messages), len(g.Transitions), *out)
			}
		}
	}
	// Orphans (checked-in graphs no extracted unit produces) mean a unit
	// silently vanished from extraction, e.g. a dispatch-idiom change the
	// extractor no longer follows. Without this, -check passes while the
	// on-disk graph rots.
	cli.Sync(prog, os.Stderr, *check, files, *out, ".json", ".dot")
	if *check {
		fmt.Println("docs/transitions is fresh")
	}
}

// runDiff cross-checks coverage snapshots against the static LLC graph.
func runDiff(graphPath string, covPaths []string) error {
	data, err := os.ReadFile(graphPath)
	if err != nil {
		return err
	}
	var g transgraph.UnitGraph
	if err := json.Unmarshal(data, &g); err != nil {
		return fmt.Errorf("%s: %v", graphPath, err)
	}

	observed := make(map[string]uint64)
	for _, p := range covPaths {
		snap, err := core.ReadCoverageFile(strings.TrimSpace(p))
		if err != nil {
			return err
		}
		for k, n := range snap {
			observed[k] += n
		}
	}

	res := transgraph.DiffCoverage(&g, observed)
	fmt.Printf("cross-check %s: %d observed pairs vs %d static pairs\n", g.Name(), res.Observed, res.Static)
	proven := make([]string, 0, len(res.Proven))
	for pair := range res.Proven {
		proven = append(proven, pair)
	}
	sort.Strings(proven)
	for _, pair := range proven {
		fmt.Printf("  proven unreachable: %-18s — %s\n", pair, res.Proven[pair])
	}
	for _, gap := range res.Gaps {
		fmt.Printf("  untested (static, never observed): %s\n", gap)
	}
	if len(res.Unknown) > 0 {
		for _, u := range res.Unknown {
			fmt.Printf("  UNKNOWN (observed, not in static graph): %s\n", u)
		}
		return fmt.Errorf("%d observed transitions missing from the static graph", len(res.Unknown))
	}
	if len(res.Contradicted) > 0 {
		for _, c := range res.Contradicted {
			fmt.Printf("  CONTRADICTED (observed but declared unreachable): %s\n", c)
		}
		return fmt.Errorf("%d observed transitions contradict //spandex:unreachable declarations", len(res.Contradicted))
	}
	fmt.Printf("ok: every observed transition is in the static graph (%d proven unreachable, %d untested)\n",
		len(res.Proven), len(res.Gaps))
	return nil
}
