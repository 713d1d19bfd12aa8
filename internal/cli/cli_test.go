package cli

import (
	"slices"
	"strings"
	"testing"
)

func TestConfigs(t *testing.T) {
	for _, tc := range []struct {
		name, list string
		want       []string
		err        string // substring of the expected error; "" for success
	}{
		{name: "empty", list: "", err: `no configurations in -configs ""`},
		{name: "blanks", list: " , ,", err: `no configurations in -configs " , ,"`},
		{name: "spaces", list: " SDD , SMG,HMG ", want: []string{"SDD", "SMG", "HMG"}},
		{name: "unknown", list: "SDD,XYZ", err: `unknown configuration "XYZ"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Configs("configs", tc.list)
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("Configs(%q) = %v, %v; want error containing %q", tc.list, got, err, tc.err)
				}
				return
			}
			if err != nil || !slices.Equal(got, tc.want) {
				t.Fatalf("Configs(%q) = %v, %v; want %v", tc.list, got, err, tc.want)
			}
		})
	}
}
