package core

import (
	"context"
	"fmt"

	"influcomm/internal/graph"
)

// SearchSource abstracts where the ranked graph lives for LocalSearch. The
// driver only ever inspects prefix subgraphs G≥τ, so a backend needs two
// capabilities: the prefix-size geometry (PrefixSizer, answerable from O(n)
// per-vertex state) and the ability to materialize a prefix in memory. The
// in-memory source is the graph itself at zero cost; a semi-external source
// streams just enough of its on-disk edge file.
type SearchSource interface {
	PrefixSizer

	// Materialize returns an in-memory graph covering at least the prefix
	// [0, p). Vertex IDs equal global weight ranks, so vertex u < p of the
	// returned graph is vertex u of the backing graph with the same weight
	// and the same prefix-internal edges. Implementations may return a
	// graph larger than requested (the in-memory source returns the whole
	// graph) and may reuse the returned value across calls; the driver
	// detects reuse by pointer identity.
	Materialize(p int) (*graph.Graph, error)
}

// PooledSource is an optional SearchSource extension: a source whose
// Materialize hands out a long-lived shared graph (an in-memory graph, a
// semi-external store's decoded prefix cache) also exposes the engine pool
// bound to that graph, and TopKOver then checks engines, CVS buffers, and
// enumeration state out of it instead of allocating O(p) scratch per query
// — the difference between a serving hot path that allocates only its
// Result and one that rebuilds three vertex-sized slices per request.
type PooledSource interface {
	// SourcePool returns the pool whose engines are bound to exactly g, or
	// nil when g is query-private and must get a fresh engine.
	SourcePool(g *graph.Graph) *Pool
}

// memSource adapts a fully in-memory graph to SearchSource.
type memSource struct{ g *graph.Graph }

func (s memSource) NumVertices() int                      { return s.g.NumVertices() }
func (s memSource) PrefixSize(p int) int64                { return s.g.PrefixSize(p) }
func (s memSource) PrefixForSize(want int64) int          { return s.g.PrefixForSize(want) }
func (s memSource) Materialize(int) (*graph.Graph, error) { return s.g, nil }

// GraphSource returns the SearchSource view of an in-memory graph:
// Materialize hands back g itself, so TopKOver over it is exactly TopKCtx.
func GraphSource(g *graph.Graph) SearchSource { return memSource{g} }

// TopKOver runs LocalSearch (Algorithm 1) against an arbitrary SearchSource:
// the same round structure, growth policy, and enumeration as TopKCtx, but
// each round's γ-core computation happens on whatever graph the source
// materializes. Over GraphSource it is equivalent to TopKCtx; over a
// semi-external source the full graph is never loaded — each round touches
// only the prefix the search has grown to, which is how a query can execute
// against a graph larger than RAM. The rounds are Grow's, with the banded
// γ-core round of bandedRun as the band.
func TopKOver(ctx context.Context, src SearchSource, k int, gamma int32, opts Options) (*Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: k must be >= 1, got %d", k)
	}
	var r bandedRun
	r.init(src, gamma, opts)
	defer r.release()
	var err error
	r.st, err = Grow(ctx, src, k, gamma, opts, func(p, prev int) (int, error) {
		return r.band(ctx, p, prev)
	})
	if err != nil {
		return nil, err
	}
	return r.result(k, opts), nil
}

// bandedRun is the round state of one LocalSearch query: the engine bound
// to the graph the source last materialized, and the keynodes found so far.
// Round i peels its whole prefix [0, pᵢ) but computes only the band of
// keynodes with rank ≥ pᵢ₋₁; the keynodes of earlier rounds are identical
// in every later prefix (see Engine.appendBand), so they are carried
// forward in acc instead of being re-cascaded. Vertex IDs in acc are global
// ranks, which keeps the carried bands valid when the source materializes a
// different graph for a later round.
type bandedRun struct {
	src   SearchSource
	ps    PooledSource
	gamma int32
	flags RunFlags
	nc    bool

	g   *graph.Graph // graph of the last round
	eng *Engine      // engine bound to g
	// pool, when non-nil, owns eng (it came from pool.Get and goes back
	// with pool.Put) and supplies enumeration state for g. accPool likewise
	// owns acc; the CVS buffer only depends on output size, so it is kept
	// across graph changes and returned to the pool it came from.
	pool    *Pool
	acc     *CVS // bands of all rounds so far, in round order
	accPool *Pool

	st Stats // the run's Stats, as Grow returned them
}

func (r *bandedRun) init(src SearchSource, gamma int32, opts Options) {
	r.src, r.gamma, r.nc = src, gamma, opts.NonContainment
	r.ps, _ = src.(PooledSource)
	r.flags = WantSeq
	if r.nc {
		r.flags |= WantNC
	}
}

// band is one Grow round on the prefix [0, p): it appends the keynodes of
// rank ≥ prev to acc and returns how many communities they hold.
func (r *bandedRun) band(ctx context.Context, p, prev int) (int, error) {
	mg, err := r.src.Materialize(p)
	if err != nil {
		return 0, err
	}
	if mg.NumVertices() < p {
		return 0, fmt.Errorf("core: source materialized %d vertices, prefix needs %d", mg.NumVertices(), p)
	}
	// Engines are bound to one graph; reuse only while the source keeps
	// returning the same one (the in-memory case, or a cached prefix large
	// enough for every round of this query).
	if r.eng == nil || mg != r.g {
		r.putEngine()
		r.g = mg
		if r.ps != nil {
			r.pool = r.ps.SourcePool(mg)
		}
		if r.pool != nil {
			r.eng = r.pool.Get(r.gamma)
		} else {
			r.eng = NewEngine(mg, r.gamma)
		}
		r.eng.SetContext(ctx)
	}
	if r.acc == nil {
		if r.pool != nil {
			r.acc, r.accPool = r.pool.buffers.Get().(*CVS), r.pool
		} else {
			r.acc = new(CVS)
		}
		r.acc.reset(p)
	}
	from := len(r.acc.Keys)
	r.acc.startBand()
	if err := r.eng.appendBand(r.acc, p, prev, r.flags); err != nil {
		return 0, err
	}
	return countOf(r.acc, from, r.nc), nil
}

// putEngine returns the current engine to its pool, if pooled.
func (r *bandedRun) putEngine() {
	if r.pool != nil && r.eng != nil {
		r.pool.Put(r.eng)
	}
	r.eng, r.pool = nil, nil
}

// release hands every pooled resource back; the result must be built first.
func (r *bandedRun) release() {
	r.putEngine()
	if r.accPool != nil {
		r.accPool.buffers.Put(r.acc)
	}
}

// result enumerates the top-k communities from the carried bands of the
// last round, on that round's graph. The compact copy puts the bands in
// increasing weight order and owns its memory, so acc can go back to its
// pool: containment keeps the last k groups, non-containment all of them —
// non-containment keynodes are sparse among all keynodes, so the whole
// sequence may be needed to collect k of them.
func (r *bandedRun) result(k int, opts Options) *Result {
	tail := k
	if r.nc {
		tail = -1
	}
	cvs := r.acc.CompactTail(tail)
	return &Result{Communities: enumerateCommunities(r.g, cvs, r.pool, k, opts), Stats: r.st}
}

// enumerateCommunities materializes the final communities from a peeled
// CVS. A non-nil pool supplies recycled enumeration state.
func enumerateCommunities(g *graph.Graph, cvs *CVS, pool *Pool, k int, opts Options) []*Community {
	switch {
	case opts.NonContainment:
		return nonContainmentCommunities(g, cvs, k)
	case pool != nil:
		enum := pool.enums.Get().(*EnumState)
		comms := enum.Process(g, cvs, k)
		enum.Recycle()
		pool.enums.Put(enum)
		return comms
	default:
		return EnumIC(g, cvs, k)
	}
}
