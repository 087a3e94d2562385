package truss

import (
	"context"
	"fmt"
	"testing"

	"influcomm/internal/core"
	"influcomm/internal/gen"
)

// sameCVS reports how the assembled CVS got differs from a from-scratch
// CountICC want, comparing P, Keys, KeyPos and Seq element by element.
func sameCVS(got, want *CVS) error {
	if got.P != want.P {
		return fmt.Errorf("P = %d, want %d", got.P, want.P)
	}
	if err := sameSlice("Keys", got.Keys, want.Keys); err != nil {
		return err
	}
	if err := sameSlice("KeyPos", got.KeyPos, want.KeyPos); err != nil {
		return err
	}
	return sameSlice("Seq", got.Seq, want.Seq)
}

func sameSlice[T int32 | int64](name string, a, b []T) error {
	if len(a) != len(b) {
		return fmt.Errorf("%s: len %d, want %d", name, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("%s[%d] = %d, want %d", name, i, a[i], b[i])
		}
	}
	return nil
}

// sameCommunities compares two community lists field by field: keynode,
// influence, sorted vertex set, size, and the keynodes of the children in
// order.
func sameCommunities(got, want []*Community) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d communities, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Keynode() != w.Keynode() || g.Influence() != w.Influence() || g.Size() != w.Size() {
			return fmt.Errorf("community %d: keynode %d influence %v size %d, want %d %v %d",
				i, g.Keynode(), g.Influence(), g.Size(), w.Keynode(), w.Influence(), w.Size())
		}
		if err := sameSlice(fmt.Sprintf("community %d vertices", i), g.Vertices(), w.Vertices()); err != nil {
			return err
		}
		if len(g.Children()) != len(w.Children()) {
			return fmt.Errorf("community %d: %d children, want %d", i, len(g.Children()), len(w.Children()))
		}
		for j, wc := range w.Children() {
			if gc := g.Children()[j]; gc.Keynode() != wc.Keynode() {
				return fmt.Errorf("community %d child %d: keynode %d, want %d", i, j, gc.Keynode(), wc.Keynode())
			}
		}
	}
	return nil
}

// referenceRounds is the truss growth loop with no carried state: every
// round runs CountICC on its whole prefix from scratch, growing the prefix
// δ = 2-fold from the (first)-th vertex, until the prefix holds k
// communities (k < 0: never) or covers the graph. It fixes the Stats and
// the final CVS the banded drivers must reproduce.
func referenceRounds(ix *Index, first, k int, gamma int32) (Stats, *CVS) {
	g := ix.Graph()
	n := g.NumVertices()
	p := min(first+int(gamma), n)
	var st Stats
	for {
		cvs := CountICC(ix, p, gamma)
		st.Rounds++
		st.TotalWork += g.PrefixSize(p)
		st.Communities = cvs.Count()
		if (k > 0 && cvs.Count() >= k) || p == n {
			st.FinalPrefix, st.FinalSize = p, g.PrefixSize(p)
			return st, cvs
		}
		next := g.PrefixForSize(2 * g.PrefixSize(p))
		p = min(max(next, p+1), n)
	}
}

// TestTrussBandedRoundsMatchFromScratch is the band-identity property of
// truss LocalSearch on core.Grow: on random graphs, for several γ and k,
// the bands assembled after every round equal a from-scratch CountICC of
// that round's prefix byte for byte, and LocalSearch's Stats and
// communities equal the from-scratch reference loop's. Stream, stopped
// after k communities, yields the reference's communities and reports the
// reference's final prefix.
func TestTrussBandedRoundsMatchFromScratch(t *testing.T) {
	ctx := context.Background()
	var multiRound, banded int // runs with ≥ 2 rounds; of those, with communities before the last
	for seed := uint64(1); seed <= 25; seed++ {
		g := gen.Random(20+int(seed*11%50), 4+float64(seed%6), seed)
		ix := NewIndex(g)
		for gamma := int32(3); gamma <= 5; gamma++ {
			all := EnumICC(ix, CountICC(ix, g.NumVertices(), gamma), -1)
			for _, k := range []int{1, 2, 3, 5, 8, 1 << 20} {
				label := fmt.Sprintf("seed=%d γ=%d k=%d", seed, gamma, k)
				wantSt, wantCVS := referenceRounds(ix, k, k, gamma)

				var b bands
				count := 0
				st, err := core.Grow(ctx, g, k, gamma, core.Options{}, func(p, prev int) (int, error) {
					cnt, err := b.add(ctx, ix, p, prev, gamma)
					if err != nil {
						return cnt, err
					}
					count += cnt
					full := CountICC(ix, p, gamma)
					if err := sameCVS(b.cvs(), full); err != nil {
						t.Fatalf("%s round %d (p=%d): %v", label, len(b), p, err)
					}
					if count != full.Count() {
						t.Fatalf("%s p=%d: running count %d, want %d", label, p, count, full.Count())
					}
					return cnt, nil
				})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if st != wantSt {
					t.Fatalf("%s: grow stats %+v, want %+v", label, st, wantSt)
				}
				if len(b) > 1 {
					multiRound++
					if len(b.cvs().Keys) > len(b[len(b)-1].Keys) {
						banded++
					}
				}

				res, err := LocalSearch(ix, k, gamma)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if res.Stats != wantSt {
					t.Fatalf("%s: LocalSearch stats %+v, want %+v", label, res.Stats, wantSt)
				}
				if err := sameCommunities(res.Communities, EnumICC(ix, wantCVS, k)); err != nil {
					t.Fatalf("%s: LocalSearch %v", label, err)
				}

				var streamed []*Community
				prefix, err := Stream(ix, gamma, func(c *Community) bool {
					streamed = append(streamed, c)
					return len(streamed) < k
				})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				want := all[:min(k, len(all))]
				if err := sameCommunities(streamed, want); err != nil {
					t.Fatalf("%s: Stream %v", label, err)
				}
				if progSt, _ := referenceRounds(ix, 1, k, gamma); prefix != progSt.FinalPrefix {
					t.Fatalf("%s: Stream stopped at prefix %d, want %d", label, prefix, progSt.FinalPrefix)
				}
			}
		}
	}
	if multiRound == 0 || banded == 0 {
		t.Fatalf("grid must carry bands across rounds: %d multi-round runs, %d with carried keynodes", multiRound, banded)
	}
	t.Logf("%d multi-round runs, %d with carried keynodes", multiRound, banded)
}
