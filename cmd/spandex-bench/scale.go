package main

import (
	"fmt"
	"time"

	spandex "spandex"
	"spandex/internal/config"
	"spandex/internal/workload"
)

// scalePoints is the device-count sweep: the paper's 24-requestor machine
// sits between the 16- and 32-requestor points; 64 is the directory
// sharer-bitset cap.
var scalePoints = []int{8, 16, 32, 48, 64}

// runScale sweeps the scalemix workload over growing mesh systems and
// prints the execution-time / traffic-vs-device-count table quoted in
// EXPERIMENTS.md. Devices split 1:3 CPU:GPU (the paper's 8:16 machine is
// 1:2; keeping GPUs in the majority preserves its throughput-dominated
// character as the system grows). Bank count and mesh width come from
// config.ScaleParams defaults, so the table also documents the geometry.
func runScale(configNames []string, seed uint64, phases int, validate bool) error {
	w := workload.DefaultScaleMix()
	if phases > 0 {
		w.Phases = phases
	}
	fmt.Printf("Scalability sweep: scalemix (%s), seed %d\n", w.Meta().Params, seed)
	fmt.Println("devices = CPU cores + GPU CUs; threads = cores + CUs*warps; traffic excludes hierarchical-internal hops")
	fmt.Println()
	fmt.Println("| config | devices | banks | mesh | threads | ops | exec (ms) | traffic (KB) | B/op | wall |")
	fmt.Println("|--------|---------|-------|------|---------|-----|-----------|--------------|------|------|")
	for _, cfgName := range configNames {
		for _, n := range scalePoints {
			nCPU := n / 4
			p := config.ScaleParams(nCPU, n-nCPU, 0)
			opt := spandex.Options{
				ConfigName: cfgName,
				Params:     &p,
				Seed:       seed,
				Validate:   validate,
			}
			start := time.Now()
			res, err := spandex.Run(w, opt)
			if err != nil {
				return fmt.Errorf("scale %s n=%d: %w", cfgName, n, err)
			}
			wall := time.Since(start)
			threads := nCPU + (n-nCPU)*p.WarpsPerCU
			bytes := res.Traffic.TotalBytes(false)
			fmt.Printf("| %s | %d | %d | %dx%d | %d | %d | %.3f | %d | %.1f | %s |\n",
				cfgName, n, p.Banks(), p.NoCMeshWidth, p.NoCMeshWidth, threads,
				res.Ops, res.ExecMillis(), bytes/1024,
				float64(bytes)/float64(res.Ops), wall.Round(time.Millisecond))
		}
	}
	return nil
}
