package core

import (
	"context"

	"influcomm/internal/graph"
)

// Stream runs LocalSearch-P (Algorithm 4): it computes and reports
// influential γ-communities progressively in decreasing influence order,
// invoking yield for each one as soon as it is available. No k needs to be
// specified; iteration ends when yield returns false or the whole graph has
// been processed. The returned Stats describe the portion of the graph
// accessed up to termination, which by §4 is O(size(G≥τ*_k)) when the
// caller stops after k communities — LocalSearch's instance-optimality
// carries over.
func Stream(g *graph.Graph, gamma int32, opts Options, yield func(*Community) bool) (Stats, error) {
	return StreamCtx(context.Background(), g, gamma, opts, yield)
}

// StreamCtx is Stream under a context: cancellation is observed at round
// boundaries and inside rounds every few thousand steps, so a cancelled
// context stops the search promptly between yields.
func StreamCtx(ctx context.Context, g *graph.Graph, gamma int32, opts Options, yield func(*Community) bool) (Stats, error) {
	if err := validateQuery(g, 1, gamma); err != nil {
		return Stats{}, err
	}
	eng := NewEngine(g, gamma)
	eng.SetContext(ctx)
	return runStream(ctx, eng, g, opts, yield)
}

// runStream is the LocalSearch-P driver behind StreamCtx and Pool.Stream:
// Grow's progressive loop with a band that yields each new community as
// soon as its round produces it. Every round computes only the keynodes
// its prefix adds (ConstructCVS, Algorithm 5) — the computation sharing
// that makes LocalSearch-P no slower than LocalSearch (Figure 15). Unlike
// the top-k driver it never reuses CVS buffers across rounds: the yielded
// communities retain each round's group slices, so every round's CVS must
// own its memory.
func runStream(ctx context.Context, eng *Engine, g *graph.Graph, opts Options, yield func(*Community) bool) (Stats, error) {
	enum := NewEnumState(g.NumVertices())
	flags := WantSeq
	if opts.NonContainment {
		flags |= WantNC
	}
	return Grow(ctx, g, -1, eng.Gamma(), opts, func(p, prev int) (int, error) {
		cvs, err := eng.RunInto(nil, p, prev, flags)
		if err != nil {
			return 0, err
		}
		cnt := 0
		if opts.NonContainment {
			for j := len(cvs.Keys) - 1; j >= 0; j-- {
				if !cvs.NC[j] {
					continue
				}
				cnt++
				if !yield(groupCommunity(g, cvs, j)) {
					return cnt, ErrStopGrowth
				}
			}
			return cnt, nil
		}
		for _, c := range enum.Process(g, cvs, -1) {
			cnt++
			if !yield(c) {
				return cnt, ErrStopGrowth
			}
		}
		return cnt, nil
	})
}

// TopKProgressive answers a top-k query with LocalSearch-P, collecting the
// first k streamed communities. It exists so benchmarks can compare the
// progressive and non-progressive algorithms on identical queries
// (Figures 14 and 15).
func TopKProgressive(g *graph.Graph, k int, gamma int32, opts Options) (*Result, error) {
	if err := validateQuery(g, k, gamma); err != nil {
		return nil, err
	}
	res := &Result{}
	st, err := Stream(g, gamma, opts, func(c *Community) bool {
		res.Communities = append(res.Communities, c)
		return len(res.Communities) < k
	})
	if err != nil {
		return nil, err
	}
	res.Stats = st
	return res, nil
}
