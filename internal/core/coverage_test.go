package core

import (
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spandex/internal/proto"
)

// TestCoverageFileRoundTrip checks that a coverage file reads back as the
// Snapshot it was written from, and that a malformed file names itself.
func TestCoverageFileRoundTrip(t *testing.T) {
	tc := NewTransitionCoverage()
	tc.Record("I", proto.ReqV)
	tc.Record("S+inv", proto.ReqO)
	tc.Record("S+inv", proto.ReqO)
	path := filepath.Join(t.TempDir(), "cov.json")
	if err := WriteCoverageFile(path, tc.Snapshot()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCoverageFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(got, tc.Snapshot()) {
		t.Fatalf("read back %v, wrote %v", got, tc.Snapshot())
	}

	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCoverageFile(bad); err == nil || !strings.HasPrefix(err.Error(), bad+": ") {
		t.Fatalf("malformed file: err = %v, want it prefixed with %s", err, bad)
	}
}
