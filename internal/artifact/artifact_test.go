package artifact

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSync(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.dot")
	orphan := filepath.Join(dir, "gone.json")
	other := filepath.Join(dir, "README.md")
	want := map[string][]byte{a: []byte("A"), b: []byte("B")}

	check := func(name string, wantFresh bool, wantLines ...string) {
		t.Helper()
		var out bytes.Buffer
		fresh, err := Sync(&out, "gen", true, want, dir, ".json", ".dot")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if fresh != wantFresh {
			t.Errorf("%s: fresh = %v, want %v\n%s", name, fresh, wantFresh, out.String())
		}
		got := strings.Split(strings.TrimSpace(out.String()), "\n")
		if out.Len() == 0 {
			got = nil
		}
		if len(got) != len(wantLines) {
			t.Fatalf("%s: report %q, want %d lines", name, got, len(wantLines))
		}
		for i, prefix := range wantLines {
			if !strings.HasPrefix(got[i], prefix) {
				t.Errorf("%s: line %d = %q, want prefix %q", name, i, got[i], prefix)
			}
		}
	}

	// Missing: nothing written yet.
	check("missing", false, "stale: "+a+" (re-run gen)", "stale: "+b+" (re-run gen)")

	// Write mode creates the files; files with other extensions are left
	// alone.
	if err := os.WriteFile(other, []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}
	if fresh, err := Sync(&bytes.Buffer{}, "gen", false, want, dir, ".json", ".dot"); err != nil || !fresh {
		t.Fatalf("write: fresh=%v err=%v", fresh, err)
	}
	check("fresh", true)

	// Stale: one file's content drifts.
	if err := os.WriteFile(b, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	check("stale", false, "stale: "+b)

	// Orphan: a generated-looking file nothing produces.
	if _, err := Sync(&bytes.Buffer{}, "gen", false, want, dir, ".json", ".dot"); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(orphan, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	check("orphan", false, "orphan: "+orphan)
	// Without an owned directory, orphans go unnoticed.
	if fresh, err := Sync(&bytes.Buffer{}, "gen", true, want, ""); err != nil || !fresh {
		t.Errorf("unowned: fresh=%v err=%v", fresh, err)
	}

	// Write mode removes the orphan and restores freshness.
	var out bytes.Buffer
	if _, err := Sync(&out, "gen", false, want, dir, ".json", ".dot"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "removed orphan "+orphan) {
		t.Errorf("write did not report the orphan removal: %q", out.String())
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Errorf("orphan still present: %v", err)
	}
	if _, err := os.Stat(other); err != nil {
		t.Errorf("file outside Exts was removed: %v", err)
	}
	check("rewritten", true)
}
