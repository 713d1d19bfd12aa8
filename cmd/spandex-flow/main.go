// Command spandex-flow stitches the per-unit transition graphs into the
// whole-system message-flow graph and verifies three global properties:
// completeness (every emitted message has a handler at every possible
// receiver state, or a //spandex:unreachable proof), deadlock-freedom
// (no message-dependency cycle in which every hop may be deferred), and
// stall-safety (every declared blocking wait has a statically identified
// progress supplier).
//
// Usage:
//
//	spandex-flow [-dir .] [-out docs/msgflow] [-check] [-mutate name] [-v]
//
// Default mode regenerates docs/msgflow/flow.{json,dot} and exits
// nonzero on violations. -check verifies the artifacts are fresh without
// writing (the CI gate). -mutate applies a named graph mutation
// mirroring a -tags spandexmut protocol mutant (dropinvack, skiprvko)
// and inverts the exit status: 0 when the checker flags the mutant, 1
// when the mutant slips through.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"spandex/internal/analysis/msgflow"
	"spandex/internal/cli"
)

const prog = "spandex-flow"

func main() {
	dir := flag.String("dir", ".", "repository root to analyze")
	out := flag.String("out", "docs/msgflow", "artifact directory")
	check := flag.Bool("check", false, "verify artifacts are fresh instead of writing")
	mutate := flag.String("mutate", "", "apply a named graph mutation and expect the checks to flag it")
	verbose := flag.Bool("v", false, "print the edge list")
	flag.Parse()

	g, err := msgflow.Build(*dir)
	if err != nil {
		cli.Fatal(prog, err)
	}
	if *mutate != "" {
		mut, ok := msgflow.Mutations[*mutate]
		if !ok {
			names := make([]string, 0, len(msgflow.Mutations))
			for n := range msgflow.Mutations {
				names = append(names, n)
			}
			sort.Strings(names)
			cli.Fatal(prog, fmt.Errorf("unknown mutation %q (have %v)", *mutate, names))
		}
		if err := mut(g); err != nil {
			cli.Fatal(prog, err)
		}
	}
	r := msgflow.Verify(g)

	if *verbose {
		for _, e := range r.Graph.Edges {
			fmt.Printf("  %-15s --%-11s--> %-15s [%s via %s]\n", e.Src, e.Msg, e.Dst, e.Class, e.Via)
		}
	}
	for _, v := range r.Violations {
		fmt.Printf("%s: %s\n", v.Check, v.Text)
	}
	fmt.Printf("msgflow: %d units, %d edges, %d blockable; %d state pairs checked, %d proven-unreachable exceptions, %d violations\n",
		len(r.Graph.Units), len(r.Graph.Edges), r.BlockableEdges, r.CheckedPairs, r.ProvenExceptions, len(r.Violations))

	if *mutate != "" {
		if len(r.Violations) == 0 {
			fmt.Printf("MISS: mutation %s produced no violation — the checker cannot see this bug class\n", *mutate)
			os.Exit(1)
		}
		fmt.Printf("detected: mutation %s surfaces as %d violation(s)\n", *mutate, len(r.Violations))
		return
	}

	jsonOut, err := msgflow.JSON(r)
	if err != nil {
		cli.Fatal(prog, err)
	}
	dotOut := msgflow.DOT(r)
	files := map[string][]byte{
		filepath.Join(*out, "flow.json"): jsonOut,
		filepath.Join(*out, "flow.dot"):  dotOut,
	}
	cli.Sync(prog, os.Stdout, *check, files, "")
	if *check {
		fmt.Printf("%s is fresh\n", *out)
	}
	if len(r.Violations) > 0 {
		os.Exit(1)
	}
}
