package core_test

import (
	"fmt"
	"testing"

	"influcomm/internal/core"
	"influcomm/internal/gen"
	"influcomm/internal/truss"
)

// TestTotalWorkBound checks Lemma 3.7 as the shared growth loop realizes
// it, for both measures that run on it: min-degree (core.TopK, any δ) and
// k-truss (truss.LocalSearch, δ = 2). Under geometric growth every
// round's size is at least δ times the previous one, so TotalWork ≤
// δ/(δ−1)·FinalSize whenever the last round grew geometrically too. A last
// round capped at the whole graph (FinalPrefix = n) may grow by less than
// δ×; only the rounds before it form the geometric chain, which loosens the
// bound to (1 + δ/(δ−1))·FinalSize. Growth targets are floor(δ·size), so a
// non-integer δ can fall short of δ× by less than one unit per round; the
// slack Rounds/(δ−1) covers that and is zero for integer δ.
func TestTotalWorkBound(t *testing.T) {
	capped := map[string]int{}
	uncapped := map[string]int{}
	check := func(measure, label string, st core.Stats, n int, delta float64) {
		t.Helper()
		slack := 0.0
		if delta != float64(int(delta)) {
			slack = float64(st.Rounds) / (delta - 1)
		}
		bound := delta / (delta - 1) * float64(st.FinalSize)
		if st.FinalPrefix == n {
			bound += float64(st.FinalSize)
			capped[measure]++
		} else {
			uncapped[measure]++
		}
		if float64(st.TotalWork) > bound+slack {
			t.Errorf("%s %s: TotalWork %d > %.1f (FinalSize %d, FinalPrefix %d of %d, %d rounds)",
				measure, label, st.TotalWork, bound+slack, st.FinalSize, st.FinalPrefix, n, st.Rounds)
		}
	}
	for seed := uint64(1); seed <= 12; seed++ {
		g := gen.Random(200+int(seed)*150, 2+float64(seed%5), seed)
		n := g.NumVertices()
		ix := truss.NewIndex(g)
		for gamma := int32(1); gamma <= 4; gamma++ {
			for _, k := range []int{1, 3, 10, 40, 200, 1 << 20} {
				for _, delta := range []float64{1.5, 2, 3, 4} {
					res, err := core.TopK(g, k, gamma, core.Options{Delta: delta})
					if err != nil {
						t.Fatal(err)
					}
					check("core", fmt.Sprintf("seed=%d δ=%v γ=%d k=%d", seed, delta, gamma, k), res.Stats, n, delta)
				}
				res, err := truss.LocalSearch(ix, k, gamma+1) // truss γ starts at 2
				if err != nil {
					t.Fatal(err)
				}
				check("truss", fmt.Sprintf("seed=%d γ=%d k=%d", seed, gamma+1, k), res.Stats, n, core.DefaultDelta)
			}
		}
	}
	for _, m := range []string{"core", "truss"} {
		if capped[m] == 0 || uncapped[m] == 0 {
			t.Fatalf("%s: grid must cover both cases: %d capped, %d uncapped runs", m, capped[m], uncapped[m])
		}
	}
}
