package core

import (
	"context"
	"errors"
	"fmt"

	"influcomm/internal/graph"
)

// DefaultDelta is the subgraph growth ratio δ of Algorithm 1. The paper
// proves the 2δ²/(δ−1) constant of Theorem 3.3 is minimized at δ = 2 and
// confirms it empirically (Figure 13).
const DefaultDelta = 2.0

// Options tunes LocalSearch. The zero value means: δ = DefaultDelta,
// initial prefix from the paper's (k+γ)-th weight heuristic, geometric
// growth, containment semantics.
type Options struct {
	// Delta is the geometric growth ratio; must be > 1 if set.
	Delta float64

	// InitialPrefix overrides the starting prefix length τ₁ heuristic
	// (Line 1 of Algorithm 1) when > 0.
	InitialPrefix int

	// ArithmeticGrowth, when > 0, replaces geometric growth with fixed
	// increments of that many size units per round. The paper's §3.3
	// remark predicts (and BenchmarkAblationArithmeticGrowth confirms)
	// super-linear behavior; the option exists only for that ablation.
	ArithmeticGrowth int64

	// NonContainment switches to non-containment community semantics
	// (§5.1): only communities with no nested sub-community are reported.
	NonContainment bool
}

func (o Options) delta() float64 {
	if o.Delta == 0 {
		return DefaultDelta
	}
	return o.Delta
}

func (o Options) validate() error {
	if o.Delta != 0 && o.Delta <= 1 {
		return fmt.Errorf("core: growth ratio δ must exceed 1, got %v", o.Delta)
	}
	if o.ArithmeticGrowth < 0 {
		return fmt.Errorf("core: negative arithmetic growth %d", o.ArithmeticGrowth)
	}
	return nil
}

// Stats reports how much of the graph a run accessed; the quantities of the
// instance-optimality analysis (§3.3).
type Stats struct {
	// Rounds counts the prefixes G≥τ₁ … G≥τ_h processed.
	Rounds int
	// FinalPrefix is the vertex count of the last prefix G≥τ_h.
	FinalPrefix int
	// FinalSize is size(G≥τ_h) = |V| + |E| of the last prefix: the largest
	// subgraph accessed, bounded by 2δ·size(G≥τ*) (Lemma 3.8).
	FinalSize int64
	// TotalWork is Σᵢ size(G≥τᵢ): the total counting work. Under geometric
	// growth every round is at least δ times the size of the one before, so
	// TotalWork ≤ (1 + 1/(δ−1))·FinalSize (Lemma 3.7) when FinalPrefix < n.
	// A last round capped at the whole graph may grow by less than δ×,
	// which loosens the bound to (1 + δ/(δ−1))·FinalSize.
	TotalWork int64
	// Communities is the number of communities in the final prefix.
	Communities int
}

// Result is the output of TopK.
type Result struct {
	// Communities holds at most k communities in decreasing influence
	// order. Fewer are returned when the whole graph has fewer.
	Communities []*Community
	Stats       Stats
}

var errNilGraph = errors.New("core: nil graph")

func validateQuery(g *graph.Graph, k int, gamma int32) error {
	if g == nil {
		return errNilGraph
	}
	if g.NumVertices() == 0 {
		return errors.New("core: empty graph")
	}
	if k < 1 {
		return fmt.Errorf("core: k must be >= 1, got %d", k)
	}
	if gamma < 1 {
		return fmt.Errorf("core: gamma must be >= 1, got %d", gamma)
	}
	return nil
}

// PrefixSizer exposes the prefix-size geometry of a ranked graph: the only
// facts the LocalSearch growth policy (Lines 1 and 4 of Algorithm 1) needs,
// with no access to the adjacency itself. *graph.Graph implements it
// directly; semi-external backends implement it from the in-memory
// up-degree vector without touching disk.
type PrefixSizer interface {
	NumVertices() int
	// PrefixSize returns size(G≥τ) = p + |E(G≥τ)| for the prefix [0, p).
	PrefixSize(p int) int64
	// PrefixForSize returns the smallest prefix length p with
	// PrefixSize(p) >= want, or NumVertices() if no prefix is that large.
	PrefixForSize(want int64) int
}

// initialPrefix implements Line 1 of Algorithm 1: the largest τ such that
// G≥τ could possibly hold k influential γ-communities. k communities span
// at least k+γ distinct vertices, so τ₁ is the (k+γ)-th largest weight.
func initialPrefix(g PrefixSizer, k int, gamma int32, opts Options) int {
	n := g.NumVertices()
	p := opts.InitialPrefix
	if p <= 0 {
		p = k + int(gamma)
	}
	if p > n {
		p = n
	}
	if p < 1 {
		p = 1
	}
	return p
}

// growPrefix implements Line 4 of Algorithm 1: the largest τ (smallest
// prefix) whose size is at least δ times the current size, falling back to
// the whole graph.
func growPrefix(g PrefixSizer, p int, opts Options) int {
	cur := g.PrefixSize(p)
	var want int64
	if opts.ArithmeticGrowth > 0 {
		want = cur + opts.ArithmeticGrowth
	} else {
		want = int64(opts.delta() * float64(cur))
		if want <= cur {
			want = cur + 1
		}
	}
	next := g.PrefixForSize(want)
	if next <= p {
		next = p + 1
	}
	if next > g.NumVertices() {
		next = g.NumVertices()
	}
	return next
}

// ErrStopGrowth is returned by a Grow band to end the loop after its own
// round: Grow accounts the round and returns its Stats with a nil error.
var ErrStopGrowth = errors.New("core: growth stopped")

// Grow is the growth loop of the local search framework (Algorithm 6,
// §5.2): one loop for every cohesiveness measure, for both top-k and
// progressive queries. Round i calls band(pᵢ, pᵢ₋₁), with p₀ = 0, which
// computes the keynodes of rank ≥ pᵢ₋₁ in the prefix G[0, pᵢ) — the band
// this round adds (ConstructCVS, Algorithm 5) — and returns how many
// communities they hold. By Property-II the keynodes of earlier rounds,
// and their groups, are the same in every later prefix, so the bands'
// counts sum to CountICC of the current prefix.
//
// For k ≥ 1 the first prefix is Line 1's heuristic for k communities and
// the loop stops at the first round whose cumulative count reaches k. For
// k < 0 it is LocalSearch-P's loop (Algorithm 4): the first prefix is the
// one that could hold a single community, and only the band (by returning
// ErrStopGrowth) or the end of the graph stops it. Between rounds the
// prefix grows δ-fold (Line 4), or by opts.ArithmeticGrowth, and the
// returned Stats hold the §3.3 quantities of the rounds run.
//
// ctx is checked before every round. Any other band error ends the loop
// and is returned with the Stats of the rounds before it.
func Grow(ctx context.Context, sz PrefixSizer, k int, gamma int32, opts Options, band func(p, prev int) (int, error)) (Stats, error) {
	var st Stats
	switch {
	case sz == nil:
		return st, errNilGraph
	case sz.NumVertices() == 0:
		return st, errors.New("core: empty graph")
	case k == 0:
		return st, errors.New("core: k must be >= 1, or < 0 for a progressive run")
	case gamma < 1:
		return st, fmt.Errorf("core: gamma must be >= 1, got %d", gamma)
	}
	if err := opts.validate(); err != nil {
		return st, err
	}
	n := sz.NumVertices()
	first := k
	if k < 0 {
		first = 1
	}
	for p, prev := initialPrefix(sz, first, gamma, opts), 0; ; p, prev = growPrefix(sz, p, opts), p {
		if err := ctx.Err(); err != nil {
			return st, err
		}
		cnt, err := band(p, prev)
		if err != nil && !errors.Is(err, ErrStopGrowth) {
			return st, err
		}
		st.Rounds++
		st.TotalWork += sz.PrefixSize(p)
		st.Communities += cnt
		st.FinalPrefix, st.FinalSize = p, sz.PrefixSize(p)
		if err != nil || (k > 0 && st.Communities >= k) || p == n {
			return st, nil
		}
	}
}

// TopK computes the top-k influential γ-communities of g with the
// LocalSearch algorithm (Algorithm 1). Communities are returned in
// decreasing influence order. The run touches only prefixes of the graph;
// by Theorem 3.3 its total work is O(2δ²/(δ−1) · size(G≥τ*)) where G≥τ* is
// the smallest subgraph any index-free algorithm must access.
func TopK(g *graph.Graph, k int, gamma int32, opts Options) (*Result, error) {
	return TopKCtx(context.Background(), g, k, gamma, opts)
}

// TopKCtx is TopK under a context: cancellation is observed at round
// boundaries and every few thousand removal/traversal steps inside a round,
// so an expired context makes the call return ctx.Err() promptly even on
// graphs where a single round is large.
func TopKCtx(ctx context.Context, g *graph.Graph, k int, gamma int32, opts Options) (*Result, error) {
	if err := validateQuery(g, k, gamma); err != nil {
		return nil, err
	}
	return TopKOver(ctx, GraphSource(g), k, gamma, opts)
}

// countOf returns the number of communities among the keynodes c.Keys[from:]:
// all of them, or only the non-containment ones.
func countOf(c *CVS, from int, nonContainment bool) int {
	if !nonContainment {
		return len(c.Keys) - from
	}
	cnt := 0
	for _, nc := range c.NC[from:] {
		if nc {
			cnt++
		}
	}
	return cnt
}

// nonContainmentCommunities extracts the top-k non-containment communities:
// the non-containment keynodes' groups are exactly their communities (§5.1).
func nonContainmentCommunities(g *graph.Graph, c *CVS, k int) []*Community {
	var out []*Community
	for j := len(c.Keys) - 1; j >= 0 && len(out) < k; j-- {
		if c.NC[j] {
			out = append(out, groupCommunity(g, c, j))
		}
	}
	return out
}

// groupCommunity returns the community of keynode j whose group is all of
// it: a non-containment community.
func groupCommunity(g *graph.Graph, c *CVS, j int) *Community {
	seg := c.Group(j)
	return &Community{keynode: c.Keys[j], influence: g.Weight(c.Keys[j]), group: seg, size: len(seg)}
}
