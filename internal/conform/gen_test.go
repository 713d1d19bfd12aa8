package conform

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// TestGenerateDigest pins the generator's output: the SHA-256 of the JSON
// of Generate over 500 seeds, on the default geometry and on a one-chunk
// geometry with up to eight threads (most of which own no chunk, and
// often cannot read one either). Any change to the generator's random
// draws, their order, or the op weights moves a digest.
func TestGenerateDigest(t *testing.T) {
	for _, tc := range []struct {
		name string
		gp   GenParams
		want string
	}{
		{"default", GenParams{}, "75fa12f78bd89078ce44bbb27231be466d548dff354f7947e9b394d1cff25424"},
		{"one-chunk", GenParams{Chunks: 1, MaxThreads: 8}, "495cd7804685c545f673aa348dda94f5ccc43fcd156ef603a4bb8b382f7b4ed8"},
	} {
		h := sha256.New()
		for seed := uint64(0); seed < 500; seed++ {
			h.Write(Generate(seed, tc.gp).ToJSON())
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != tc.want {
			t.Errorf("%s: Generate digest %s, want %s", tc.name, got, tc.want)
		}
	}
}
