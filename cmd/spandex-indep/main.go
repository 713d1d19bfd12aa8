// Command spandex-indep derives the static independence facts the model
// checker's partial-order reduction consumes — the forwardable request
// types that solicit device→device direct responses (guardMsgTypes), the
// LLC types whose settled-state handling is line-local
// (settledLocalMsgTypes), and whether the LLC is DRAM's sole client
// (memSoleClient) — from the transition and message-flow graphs, and
// keeps three artifacts in sync: docs/indep/indep.json,
// docs/indep/indep.dot, and the generated Go tables in
// internal/mcheck/indep_tables.go.
//
// Usage:
//
//	spandex-indep [-dir .] [-out docs/indep] [-tables internal/mcheck/indep_tables.go] [-check] [-v]
//
// Default mode regenerates all three artifacts. -check verifies they are
// fresh without writing (the CI gate): a protocol change that alters the
// derived facts then fails CI until the artifacts — and with them the
// reduction's soundness assumptions — are regenerated and re-reviewed.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"spandex/internal/analysis/indep"
	"spandex/internal/cli"
)

const prog = "spandex-indep"

func main() {
	dir := flag.String("dir", ".", "repository root to analyze")
	out := flag.String("out", "docs/indep", "artifact directory")
	tables := flag.String("tables", "internal/mcheck/indep_tables.go", "generated Go table file")
	check := flag.Bool("check", false, "verify artifacts are fresh instead of writing")
	verbose := flag.Bool("v", false, "print the derived facts and their evidence")
	flag.Parse()

	f, err := indep.Build(*dir)
	if err != nil {
		cli.Fatal(prog, err)
	}
	if *verbose {
		for _, m := range f.Guard {
			fmt.Printf("guard %-10s %v\n", m, f.GuardEvidence[m])
		}
		for _, m := range f.SettledLocal {
			fmt.Printf("settled-local %-10s %s\n", m, f.SettledEvidence[m])
		}
		fmt.Printf("mem clients: %v\n", f.MemClients)
	}
	fmt.Printf("indep: %d guard types, %d settled-local types, memSoleClient=%v\n",
		len(f.Guard), len(f.SettledLocal), f.MemSoleClient)

	jsonOut, err := indep.JSON(f)
	if err != nil {
		cli.Fatal(prog, err)
	}
	goOut, err := indep.GoSource(f)
	if err != nil {
		cli.Fatal(prog, err)
	}
	files := map[string][]byte{
		filepath.Join(*out, "indep.json"): jsonOut,
		filepath.Join(*out, "indep.dot"):  indep.DOT(f),
		*tables:                           goOut,
	}
	cli.Sync(prog, os.Stdout, *check, files, "")
	if *check {
		fmt.Printf("%s and %s are fresh\n", *out, *tables)
	}
}
