package ecc

import (
	"context"
	"fmt"
	"testing"

	"influcomm/internal/core"
	"influcomm/internal/gen"
)

// TestGrowMatchesNaive runs the edge-connectivity measure through the
// shared growth loop of Algorithm 6, core.Grow, exactly as the core and
// truss measures run: each round counts only the keynodes its prefix adds,
// and the final prefix is enumerated. The top-k must equal the
// definitional oracle's, so the framework is shown to generalise beyond
// the two measures the serving stack uses.
func TestGrowMatchesNaive(t *testing.T) {
	ctx := context.Background()
	for seed := uint64(1); seed <= 5; seed++ {
		g := gen.Random(20, 4, seed)
		for _, gamma := range []int32{2, 3} {
			naive := NaiveCommunities(g, gamma)
			for _, k := range []int{1, 3, 1 << 20} {
				band := func(p, prev int) (int, error) {
					cnt := 0
					for _, c := range EnumICC(g, p, -1, gamma) {
						if int(c.Keynode) >= prev {
							cnt++
						}
					}
					return cnt, nil
				}
				st, err := core.Grow(ctx, g, k, gamma, core.Options{}, band)
				if err != nil {
					t.Fatal(err)
				}
				if cnt := CountICC(g, st.FinalPrefix, gamma); st.Communities != cnt {
					t.Fatalf("seed %d γ=%d k=%d: cumulative count %d, CountICC %d", seed, gamma, k, st.Communities, cnt)
				}
				got := EnumICC(g, st.FinalPrefix, k, gamma)
				want := naive[:min(k, len(naive))]
				if len(got) != len(want) {
					t.Fatalf("seed %d γ=%d k=%d: %d vs %d communities", seed, gamma, k, len(got), len(want))
				}
				for i := range want {
					a := fmt.Sprintf("%d:%v", got[i].Keynode, got[i].Vertices)
					b := fmt.Sprintf("%d:%v", want[i].Keynode, want[i].Vertices)
					if a != b {
						t.Fatalf("seed %d γ=%d k=%d: community %d differs\n got %s\nwant %s", seed, gamma, k, i, a, b)
					}
				}
			}
		}
	}
}
