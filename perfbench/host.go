package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// hostStamp identifies where and on what a result was taken. Compare
// mode refuses to put results from different hosts side by side: the
// fields other than Git and Seed must match.
type hostStamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	Git        string `json:"git"`
	Seed       uint64 `json:"seed"`
}

func newHostStamp(root string, seed uint64) hostStamp {
	return hostStamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		CPU:        cpuModel(),
		Git:        gitSHA(root),
		Seed:       seed,
	}
}

// sameHost reports the first host field on which two stamps differ.
func (h hostStamp) sameHost(o hostStamp) error {
	switch {
	case h.NProc != o.NProc:
		return fmt.Errorf("nproc %d vs %d", h.NProc, o.NProc)
	case h.GOMAXPROCS != o.GOMAXPROCS:
		return fmt.Errorf("GOMAXPROCS %d vs %d", h.GOMAXPROCS, o.GOMAXPROCS)
	case h.Go != o.Go:
		return fmt.Errorf("go %s vs %s", h.Go, o.Go)
	case h.CPU != o.CPU:
		return fmt.Errorf("cpu %q vs %q", h.CPU, o.CPU)
	}
	return nil
}

// gitSHA reads the checked-out commit from root/.git without running git,
// or "unknown" when root is not a git work tree (a plain source export).
func gitSHA(root string) string {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if sha, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(sha))
	}
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}
