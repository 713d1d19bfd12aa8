// Command spandex-sim runs one workload on one cache configuration and
// prints detailed statistics.
//
// Usage:
//
//	spandex-sim -config SDD -workload bc
//	spandex-sim -config HMG -workload litmus -seed 3 -check
//	spandex-sim -config SDD -workload bc -verify-determinism
//	spandex-sim -list
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"spandex"
	"spandex/internal/cli"
	"spandex/internal/proto"
)

const prog = "spandex-sim"

func main() {
	cell := cli.CellFlags("pr", false)
	flag.Lookup("workload").Usage = "workload name (see -list)"
	flag.Lookup("config").Usage = "cache configuration (HMG HMD SMG SMD SDG SDD)"
	check := flag.Bool("check", false, "enable coherence invariant checking, including the per-transition SWMR audit")
	validate := flag.Bool("validate", true, "validate final memory state")
	verifyDet := flag.Bool("verify-determinism", false,
		"run the cell twice (serial, then under contention) and require bit-identical results")
	list := flag.Bool("list", false, "list workloads and configurations")
	flag.Parse()

	if *list {
		fmt.Println("configurations:")
		for _, c := range spandex.Configurations() {
			fmt.Printf("  %-5s LLC=%s CPU=%s GPU=%s\n", c.Name, c.LLC, c.CPU, c.GPU)
		}
		fmt.Println("workloads:")
		for _, n := range spandex.WorkloadNames() {
			w, _ := spandex.WorkloadByName(n)
			fmt.Printf("  %-12s %s\n", n, w.Meta().Pattern)
		}
		return
	}

	w, opt, err := cell.Resolve(cli.RunOptions(cell.Seed, *check, *validate))
	if err != nil {
		cli.Fatal(prog, fmt.Errorf("%v\nuse -list to see available workloads", err))
	}

	if *verifyDet {
		reports, err := spandex.VerifyDeterminism(context.Background(),
			[]string{cell.Workload}, []string{cell.Config}, opt, 1)
		if err != nil {
			cli.Fatal(prog, err)
		}
		r := reports[0]
		fmt.Printf("determinism verified: %s/%s fingerprint=%#016x serial=%s contended=%s\n",
			r.Workload, r.Config, r.Fingerprint,
			r.SerialWall.Round(time.Millisecond), r.ContendedWall.Round(time.Millisecond))
		return
	}

	start := time.Now()
	res, err := spandex.Run(w, opt)
	wall := time.Since(start)
	if err != nil {
		for _, v := range res.Violations {
			fmt.Fprintln(os.Stderr, prog+": violation:", v)
		}
		cli.Fatal(prog, err)
	}

	fmt.Printf("workload:   %s (%s)\n", res.Workload, w.Meta().Pattern)
	fmt.Printf("config:     %s\n", res.Config)
	fmt.Printf("exec time:  %.3f ms simulated (%s wall)\n", res.ExecMillis(), wall.Round(time.Millisecond))
	fmt.Printf("operations: %d\n", res.Ops)
	fmt.Printf("traffic:    %d KB total (excluding DRAM)\n", res.Traffic.TotalBytes(false)/1024)
	for c := proto.Class(0); c < proto.NumClasses; c++ {
		if res.Traffic.Bytes[c] == 0 {
			continue
		}
		fmt.Printf("  %-8s %10d bytes %8d msgs\n", c, res.Traffic.Bytes[c], res.Traffic.Messages[c])
	}
	if *validate {
		fmt.Println("validation: final memory state matches the workload oracle")
	}
}
