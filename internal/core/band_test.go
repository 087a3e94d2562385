package core

import (
	"context"
	"fmt"
	"testing"

	"influcomm/internal/gen"
	"influcomm/internal/graph"
)

// freshSource materializes a brand-new graph holding exactly the prefix
// [0, p) on every call, so no two rounds of a query share a graph or an
// engine: the carried bands must stay valid across graph changes because
// their vertex IDs are global ranks.
type freshSource struct{ g *graph.Graph }

func (s freshSource) NumVertices() int             { return s.g.NumVertices() }
func (s freshSource) PrefixSize(p int) int64       { return s.g.PrefixSize(p) }
func (s freshSource) PrefixForSize(want int64) int { return s.g.PrefixForSize(want) }

func (s freshSource) Materialize(p int) (*graph.Graph, error) {
	upDeg := make([]int32, p)
	var up []int32
	for u := int32(0); int(u) < p; u++ {
		upDeg[u] = s.g.UpDegree(u)
		up = append(up, s.g.UpNeighbors(u)...)
	}
	return graph.FromUpAdjacency(s.g.Weights()[:p], upDeg, up, nil)
}

// sameCVS reports how the assembled CVS got differs from a from-scratch
// run want, comparing Keys, KeyPos, Seq and NC element by element.
func sameCVS(got, want *CVS) error {
	eq := func(name string, a, b []int32) error {
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
	if err := eq("Keys", got.Keys, want.Keys); err != nil {
		return err
	}
	if err := eq("KeyPos", got.KeyPos, want.KeyPos); err != nil {
		return err
	}
	if err := eq("Seq", got.Seq, want.Seq); err != nil {
		return err
	}
	if (got.NC == nil) != (want.NC == nil) || len(got.NC) != len(want.NC) {
		return fmt.Errorf("NC: %v, want %v", got.NC, want.NC)
	}
	for i := range got.NC {
		if got.NC[i] != want.NC[i] {
			return fmt.Errorf("NC[%d] = %v, want %v", i, got.NC[i], want.NC[i])
		}
	}
	return nil
}

func runFlags(opts Options) RunFlags {
	if opts.NonContainment {
		return WantSeq | WantNC
	}
	return WantSeq
}

// round steps the query one Grow round to the prefix [0, p), so a test can
// inspect the carried bands between rounds: r.st keeps the running count
// and the last prefix the way Grow accounts them.
func (r *bandedRun) round(ctx context.Context, p int) error {
	cnt, err := r.band(ctx, p, r.st.FinalPrefix)
	if err != nil {
		return err
	}
	r.st.Rounds++
	r.st.Communities += cnt
	r.st.FinalPrefix = p
	return nil
}

// referenceTopK is LocalSearch with no carried state: every round decomposes
// its whole prefix from scratch. It fixes the Stats and communities the
// banded drivers must reproduce.
func referenceTopK(g *graph.Graph, k int, gamma int32, opts Options) *Result {
	var st Stats
	var cvs *CVS
	n := g.NumVertices()
	p := initialPrefix(g, k, gamma, opts)
	for {
		cvs = NewEngine(g, gamma).Run(p, 0, runFlags(opts))
		st.Rounds++
		st.TotalWork += g.PrefixSize(p)
		st.Communities = countOf(cvs, 0, opts.NonContainment)
		if st.Communities >= k || p == n {
			break
		}
		p = growPrefix(g, p, opts)
	}
	st.FinalPrefix, st.FinalSize = p, g.PrefixSize(p)
	comms := EnumIC(g, cvs, k)
	if opts.NonContainment {
		comms = nonContainmentCommunities(g, cvs, k)
	}
	return &Result{Communities: comms, Stats: st}
}

// requireSameShallow is requireSameResult without the recursion: every
// child of a top-k community is itself among the top k, so comparing each
// listed community's own fields and its children's keynodes covers the
// whole forest in time linear in the output, where a deep nested chain
// would make the recursive walk quadratic.
func requireSameShallow(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if want.Stats != got.Stats {
		t.Fatalf("%s: stats differ\n got %+v\nwant %+v", label, got.Stats, want.Stats)
	}
	if len(want.Communities) != len(got.Communities) {
		t.Fatalf("%s: got %d communities, want %d", label, len(got.Communities), len(want.Communities))
	}
	for i, w := range want.Communities {
		g := got.Communities[i]
		ok := w.Keynode() == g.Keynode() && w.Influence() == g.Influence() && w.Size() == g.Size() &&
			equalInt32(w.Group(), g.Group()) && len(w.Children()) == len(g.Children())
		for j := 0; ok && j < len(w.Children()); j++ {
			ok = w.Children()[j].Keynode() == g.Children()[j].Keynode()
		}
		if !ok {
			t.Fatalf("%s: community %d (keynode %d vs %d) differs", label, i, w.Keynode(), g.Keynode())
		}
	}
}

// TestBandedRoundsMatchFromScratch is the band-identity property: on random
// graphs, for both semantics and a grid of (k, γ, δ), the CVS the banded
// round loop assembles after every round equals a from-scratch
// decomposition of that round's prefix, byte for byte — over the in-memory
// source and over a source that materializes a different graph each round
// — and TopKOver's Stats and communities equal the from-scratch driver's.
func TestBandedRoundsMatchFromScratch(t *testing.T) {
	ctx := context.Background()
	for seed := uint64(1); seed <= 30; seed++ {
		g := gen.Random(10+int(seed*7%60), 1+float64(seed%6), seed)
		n := g.NumVertices()
		sources := map[string]SearchSource{"graph": GraphSource(g), "fresh": freshSource{g}}
		for _, nc := range []bool{false, true} {
			for _, delta := range []float64{1.5, 2, 3} {
				for gamma := int32(1); gamma <= 4; gamma++ {
					for _, k := range []int{1, 2, 3, 5, 8, 1 << 20} {
						opts := Options{Delta: delta, NonContainment: nc}
						want := referenceTopK(g, k, gamma, opts)
						for name, src := range sources {
							label := fmt.Sprintf("seed=%d %s nc=%v δ=%v γ=%d k=%d", seed, name, nc, delta, gamma, k)
							var r bandedRun
							r.init(src, gamma, opts)
							for p := initialPrefix(src, k, gamma, opts); ; p = growPrefix(src, p, opts) {
								if err := r.round(ctx, p); err != nil {
									t.Fatalf("%s p=%d: %v", label, p, err)
								}
								full := NewEngine(g, gamma).Run(p, 0, runFlags(opts))
								if err := sameCVS(r.acc.CompactTail(-1), full); err != nil {
									t.Fatalf("%s round %d (p=%d): %v", label, r.st.Rounds, p, err)
								}
								if cnt := countOf(full, 0, nc); r.st.Communities != cnt {
									t.Fatalf("%s p=%d: running count %d, want %d", label, p, r.st.Communities, cnt)
								}
								if r.st.Communities >= k || p == n {
									break
								}
							}
							r.release()
							got, err := TopKOver(ctx, src, k, gamma, opts)
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							requireSameShallow(t, label, want, got)
						}
					}
				}
			}
		}
	}
}
