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
// their vertex IDs are global ranks. Fork hands out the source itself.
type freshSource struct{ g *graph.Graph }

func (s freshSource) NumVertices() int                            { return s.g.NumVertices() }
func (s freshSource) PrefixSize(p int) int64                      { return s.g.PrefixSize(p) }
func (s freshSource) PrefixForSize(want int64) int                { return s.g.PrefixForSize(want) }
func (s freshSource) Fork(context.Context) (SearchSource, func()) { return s, func() {} }

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

// TestSpeculativeBandsMatchFromScratch is the band-identity property for
// the parallel driver: whichever plan round stops the query, the bands the
// speculative rounds computed, merged in plan order behind the sequential
// prelude's, equal a from-scratch decomposition of the stopping prefix.
// k sweeps the cumulative counts of every round past the prelude cutoff,
// so each speculative round that finds a new community is the stopping
// round once; δ = 1.5 puts three rounds past the cutoff.
func TestSpeculativeBandsMatchFromScratch(t *testing.T) {
	ctx := context.Background()
	g := gen.Random(16000, 20, 7)
	n := g.NumVertices()
	sources := map[string]ForkableSource{"graph": GraphSource(g).(ForkableSource), "fresh": freshSource{g}}
	for _, nc := range []bool{false, true} {
		opts := Options{Delta: 1.5, NonContainment: nc}
		for _, gamma := range []int32{2, 4} {
			ks := []int{1 << 20}
			for p := initialPrefix(g, 1, gamma, opts); p < n; {
				p = growPrefix(g, p, opts)
				if g.PrefixSize(p) < ParallelMinRoundWork {
					continue
				}
				if cnt := countOf(NewEngine(g, gamma).Run(p, 0, runFlags(opts)), 0, nc); cnt > 0 && cnt != ks[len(ks)-1] {
					ks = append(ks, cnt)
				}
			}
			for _, k := range ks {
				want := referenceTopK(g, k, gamma, opts)
				for sname, src := range sources {
					for _, workers := range []int{1, 2, 8} {
						label := fmt.Sprintf("%s nc=%v γ=%d k=%d workers=%d", sname, nc, gamma, k, workers)
						var r bandedRun
						r.init(src, gamma, opts)
						if err := r.speculate(ctx, src, k, opts, workers); err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						full := NewEngine(g, gamma).Run(r.prev, 0, runFlags(opts))
						if err := sameCVS(r.acc.CompactTail(-1), full); err != nil {
							t.Fatalf("%s (stopped at p=%d): %v", label, r.prev, err)
						}
						if r.st.Rounds != want.Stats.Rounds || r.prev != want.Stats.FinalPrefix || r.st.Communities != want.Stats.Communities {
							t.Fatalf("%s: stopped after %d rounds at p=%d with %d communities, want %+v",
								label, r.st.Rounds, r.prev, r.st.Communities, want.Stats)
						}
						r.release()
						got, err := TopKOverParallel(ctx, src, k, gamma, opts, workers)
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

// TestAppendEmptyBandKeepsNC appends a speculative round's band that found
// no keynode — a fresh CVS with NC requested but never filled — behind
// bands with non-containment flags: the flags must survive the merge.
func TestAppendEmptyBandKeepsNC(t *testing.T) {
	g := figure1(t)
	n := g.NumVertices()
	flags := WantSeq | WantNC
	acc := new(CVS)
	acc.reset(n)
	acc.appendCVS(NewEngine(g, 3).Run(n, 0, flags), flags)
	empty := NewEngine(g, 3).Run(n, n, flags)
	if empty.Count() != 0 {
		t.Fatalf("band above the whole prefix holds %d keynodes", empty.Count())
	}
	acc.appendCVS(empty, flags)
	if err := sameCVS(acc.CompactTail(-1), NewEngine(g, 3).Run(n, 0, flags)); err != nil {
		t.Fatal(err)
	}
}

// TestTotalWorkBound checks Lemma 3.7 as the driver realizes it. Under
// geometric growth every round's size is at least δ times the previous
// one, so TotalWork ≤ δ/(δ−1)·FinalSize whenever the last round grew
// geometrically too. A last round capped at the whole graph (FinalPrefix =
// n) may grow by less than δ×; only the rounds before it form the
// geometric chain, which loosens the bound to (1 + δ/(δ−1))·FinalSize.
// Growth targets are floor(δ·size), so a non-integer δ can fall short of
// δ× by less than one unit per round; the slack Rounds/(δ−1) covers that
// and is zero for integer δ.
func TestTotalWorkBound(t *testing.T) {
	var capped, uncapped int
	for seed := uint64(1); seed <= 12; seed++ {
		g := gen.Random(200+int(seed)*150, 2+float64(seed%5), seed)
		n := g.NumVertices()
		for _, delta := range []float64{1.5, 2, 3, 4} {
			ratio := delta / (delta - 1)
			for gamma := int32(1); gamma <= 4; gamma++ {
				for _, k := range []int{1, 3, 10, 40, 200, 1 << 20} {
					res, err := TopK(g, k, gamma, Options{Delta: delta})
					if err != nil {
						t.Fatal(err)
					}
					st := res.Stats
					slack := 0.0
					if delta != float64(int(delta)) {
						slack = float64(st.Rounds) / (delta - 1)
					}
					bound := ratio * float64(st.FinalSize)
					if st.FinalPrefix == n {
						bound += float64(st.FinalSize)
						capped++
					} else {
						uncapped++
					}
					if float64(st.TotalWork) > bound+slack {
						t.Errorf("seed=%d δ=%v γ=%d k=%d: TotalWork %d > %.1f (FinalSize %d, FinalPrefix %d of %d, %d rounds)",
							seed, delta, gamma, k, st.TotalWork, bound+slack, st.FinalSize, st.FinalPrefix, n, st.Rounds)
					}
				}
			}
		}
	}
	if capped == 0 || uncapped == 0 {
		t.Fatalf("grid must cover both cases: %d capped, %d uncapped runs", capped, uncapped)
	}
}
