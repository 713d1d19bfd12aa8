// Package cli is the front end the spandex-* commands share: the flags
// that name one (workload, configuration, seed) cell, the prefixed error
// exit, the -o and -in files, the comma-separated configuration list, the
// -coverage-out file and the artifact -check exit. It holds only what two
// or more commands would otherwise each write by hand.
package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"spandex"
	"spandex/internal/artifact"
	"spandex/internal/core"
)

// Fatal prints "prog: err" on stderr and exits with status 1.
func Fatal(prog string, err error) {
	fmt.Fprintln(os.Stderr, prog+":", err)
	os.Exit(1)
}

// Sync writes a generator's artifacts, or under -check verifies them,
// through artifact.Sync with prog as the tool to re-run. It exits with
// status 1 when check mode finds a stale or orphaned file.
func Sync(prog string, w io.Writer, check bool, files map[string][]byte, ownedDir string, exts ...string) {
	fresh, err := artifact.Sync(w, prog, check, files, ownedDir, exts...)
	if err != nil {
		Fatal(prog, err)
	}
	if !fresh {
		os.Exit(1)
	}
}

// Cell is the one cell spandex-sim, spandex-trace and spandex-metrics run,
// as their -workload, -config, -seed and -fast flags name it.
type Cell struct {
	Workload string
	Config   string
	Seed     uint64
	Fast     bool
}

// CellFlags registers -workload (defaulting to workload), -config and
// -seed on the command line, plus -fast when fast is set, and returns the
// Cell that flag.Parse fills in.
func CellFlags(workload string, fast bool) *Cell {
	c := new(Cell)
	flag.StringVar(&c.Workload, "workload", workload, "workload to run (see spandex-sim -list)")
	flag.StringVar(&c.Config, "config", "SDD", "cache configuration (Table V name)")
	flag.Uint64Var(&c.Seed, "seed", 42, "workload input seed")
	if fast {
		flag.BoolVar(&c.Fast, "fast", true, "use the shrunken FastParams system (full Table VI otherwise)")
	}
	return c
}

// Resolve looks the cell's workload up and completes opt with the cell's
// configuration and seed, and with FastParams under -fast.
func (c *Cell) Resolve(opt spandex.Options) (spandex.Workload, spandex.Options, error) {
	w, err := spandex.WorkloadByName(c.Workload)
	if err != nil {
		return nil, opt, err
	}
	opt.ConfigName, opt.Seed = c.Config, c.Seed
	if c.Fast {
		p := spandex.FastParams()
		opt.Params = &p
	}
	return w, opt, nil
}

// RunOptions maps the -seed, -check and -validate flags of spandex-sim and
// spandex-bench onto Options: -check turns on the invariant checker and
// its per-transition audit, -validate the workload's final-state oracle.
func RunOptions(seed uint64, check, validate bool) spandex.Options {
	return spandex.Options{
		Seed:                 seed,
		CheckInvariants:      check,
		CheckEveryTransition: check,
		Validate:             validate,
	}
}

// Create opens a command's -o output: stdout when path is empty (closing
// it is then a no-op), the created file otherwise.
func Create(path string) (io.WriteCloser, error) {
	if path == "" {
		return stdout{os.Stdout}, nil
	}
	return os.Create(path)
}

type stdout struct{ io.Writer }

func (stdout) Close() error { return nil }

// Validate runs check on the -in file of a validate mode; what names the
// expected input in the error for a missing -in. Errors from check are
// prefixed with the file name.
func Validate(in, what string, check func(io.Reader) error) error {
	if in == "" {
		return fmt.Errorf("validate mode needs -in <%s>", what)
	}
	f, err := os.Open(in)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := check(f); err != nil {
		return fmt.Errorf("%s: %w", in, err)
	}
	return nil
}

// Configs splits a comma-separated list of Table V configuration names
// given to flag name, trimming blanks around each name and skipping empty
// ones. It fails on an unknown name or a list with no names.
func Configs(name, list string) ([]string, error) {
	var names []string
	for _, n := range strings.Split(list, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		if _, err := spandex.ConfigByName(n); err != nil {
			return nil, err
		}
		names = append(names, n)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no configurations in -%s %q", name, list)
	}
	return names, nil
}

// WriteCoverage writes cov to the -coverage-out file path, when one is
// named, and reports the number of pairs written on w. A write error ends
// the program through Fatal.
func WriteCoverage(prog string, w io.Writer, cov *core.TransitionCoverage, path string) {
	if path == "" {
		return
	}
	snap := cov.Snapshot()
	if err := core.WriteCoverageFile(path, snap); err != nil {
		Fatal(prog, err)
	}
	fmt.Fprintf(w, "coverage: %d distinct (state, msg) pairs -> %s\n", len(snap), path)
}
