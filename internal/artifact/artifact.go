// Package artifact keeps checked-in generated files in step with the
// generator that produces them: it writes them, or in check mode reports
// every file that is stale, missing or orphaned without writing anything.
// spandex-flow, spandex-indep and spandex-transgraph all use it.
package artifact

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"spandex/internal/detsort"
)

// Sync brings the files in want (path → content) in line with disk. In
// check mode it writes nothing and prints one line per problem to w:
// "stale: <path> (re-run <tool>)" for a missing or different file and
// "orphan: <path> (...)" for an orphan. Otherwise it writes every file,
// creating directories, and deletes the orphans, printing each removal.
// It returns false if check mode found a problem.
//
// ownedDir, when non-empty, is a directory the generator owns outright: a
// file in it with one of exts that want does not produce is an orphan,
// e.g. the output of a unit that silently vanished from extraction.
func Sync(w io.Writer, tool string, check bool, want map[string][]byte, ownedDir string, exts ...string) (fresh bool, err error) {
	orphans, err := orphans(want, ownedDir, exts)
	if err != nil {
		return false, err
	}
	fresh = true
	for _, path := range detsort.Keys(want) {
		if check {
			have, err := os.ReadFile(path)
			if err != nil || !bytes.Equal(have, want[path]) {
				fmt.Fprintf(w, "stale: %s (re-run %s)\n", path, tool)
				fresh = false
			}
			continue
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return false, err
		}
		if err := os.WriteFile(path, want[path], 0o644); err != nil {
			return false, err
		}
	}
	for _, path := range orphans {
		if check {
			fmt.Fprintf(w, "orphan: %s (%s no longer produces it — extraction regression or leftover; re-run %s)\n", path, tool, tool)
			fresh = false
			continue
		}
		if err := os.Remove(path); err != nil {
			return false, err
		}
		fmt.Fprintf(w, "removed orphan %s\n", path)
	}
	return fresh, nil
}

// orphans lists, in name order, the files in dir with one of exts that
// want does not produce. A missing directory has no orphans.
func orphans(want map[string][]byte, dir string, exts []string) ([]string, error) {
	if dir == "" {
		return nil, nil
	}
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []string
	for _, ent := range entries {
		path := filepath.Join(dir, ent.Name())
		if _, ok := want[path]; ok || ent.IsDir() || !slices.Contains(exts, filepath.Ext(path)) {
			continue
		}
		out = append(out, path)
	}
	return out, nil
}
