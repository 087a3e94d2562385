package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"influcomm/internal/graph"
)

// ForkableSource is an optional SearchSource extension that unlocks the
// speculative parallel driver: Fork returns an independent source over the
// same ranked graph for use by one concurrent round, plus a release
// callback returning the fork's resources (pooled scratch, file handles)
// once the round's materialized graph is no longer referenced. Forks of one
// source may materialize prefixes concurrently with each other and with the
// parent.
type ForkableSource interface {
	SearchSource

	// Fork returns a source whose Materialize observes ctx, and a release
	// callback the driver invokes exactly once when the fork's graphs are
	// dead.
	Fork(ctx context.Context) (SearchSource, func())
}

// ParallelMinRoundWork is the work-size cutoff of the parallel driver:
// rounds whose prefix size (vertices + edges) is below it run inline on the
// calling goroutine, and queries over graphs smaller than it never leave
// TopKOver's zero-overhead sequential path. Peeling a prefix this size
// takes tens of microseconds — well above the cost of a goroutine handoff,
// so rounds past the cutoff gain from overlap while small queries pay
// nothing.
const ParallelMinRoundWork = 1 << 16

// TopKOverParallel is TopKOver with bounded intra-query parallelism: the
// γ-rounds of LocalSearch are evaluated speculatively on up to workers
// goroutines. The growth sequence τ₁ > τ₂ > … depends only on prefix-size
// geometry — never on a round's outcome — so every round's prefix, and the
// previous prefix that bounds its band of new keynodes, is known up front:
// rounds are independent γ-core computations. The driver claims them in
// order, runs them concurrently, and merges the bands in plan order, so it
// stops at the same round the sequential driver would have stopped at: the
// first whose cumulative community count reaches k (or that covers the
// whole graph). Overshooting rounds are cancelled. Results — communities
// and access statistics — are byte-identical to TopKOver at any worker
// count.
//
// Sources that do not implement ForkableSource, worker counts below 2, and
// queries below the work-size cutoff all fall back to TopKOver, as does
// the ArithmeticGrowth ablation (whose unbounded round count defeats
// speculation).
func TopKOverParallel(ctx context.Context, src SearchSource, k int, gamma int32, opts Options, workers int) (*Result, error) {
	if err := checkQuery(ctx, src, k, gamma, opts); err != nil {
		return nil, err
	}
	fs, ok := src.(ForkableSource)
	if !ok || workers <= 1 || opts.ArithmeticGrowth > 0 || src.PrefixSize(src.NumVertices()) < ParallelMinRoundWork {
		return TopKOver(ctx, src, k, gamma, opts)
	}
	var r bandedRun
	r.init(src, gamma, opts)
	defer r.release()
	if err := r.speculate(ctx, fs, k, opts, workers); err != nil {
		return nil, err
	}
	return r.result(k, opts), nil
}

// speculate runs the rounds of TopKOverParallel. On success r holds the
// bands of every round up to the stopping round, and that round's graph.
func (r *bandedRun) speculate(ctx context.Context, fs ForkableSource, k int, opts Options, workers int) error {
	// The whole round plan is known before any γ-core is peeled: that is
	// what makes speculation deterministic — round i inspects the same
	// prefix and band whether rounds run one at a time or concurrently.
	n := r.src.NumVertices()
	plan := []int{initialPrefix(r.src, k, r.gamma, opts)}
	for p := plan[0]; p < n; {
		p = growPrefix(r.src, p, opts)
		plan = append(plan, p)
	}

	// Sequential prelude: rounds below the cutoff run inline exactly as
	// TopKOver runs them — same engine reuse, same pooling — so an early
	// answer never pays for goroutines it didn't need.
	start := 0
	for ; start < len(plan) && r.src.PrefixSize(plan[start]) < ParallelMinRoundWork; start++ {
		p := plan[start]
		if err := r.round(ctx, p); err != nil {
			return err
		}
		if r.st.Communities >= k || p == n {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	r.putEngine()

	// Speculative phase: workers claim the remaining rounds in plan order
	// and compute each round's band concurrently on forked sources. The
	// coordinator advances a frontier over finished rounds, adding their
	// band counts; the first round whose cumulative count reaches k (or
	// that covers the whole graph) is exactly the sequential stopping
	// round, and everything still running past it is cancelled.
	specCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make([]*specRound, len(plan))
	ready := make([]bool, len(plan))
	done := make(chan int, len(plan))
	var next atomic.Int64
	next.Store(int64(start))
	nw := workers
	if rem := len(plan) - start; nw > rem {
		nw = rem
	}
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(plan) {
					return
				}
				prev := 0
				if i > 0 {
					prev = plan[i-1]
				}
				results[i] = evalSpecRound(specCtx, fs, plan[i], prev, r.gamma, r.flags, r.nc)
				done <- i
			}
		}()
	}
	winnerIdx := -1
	var rerr error
	cnt := r.st.Communities
	for f := start; f < len(plan); {
		if !ready[f] {
			ready[<-done] = true
			continue
		}
		res := results[f]
		if res.err != nil {
			rerr = res.err
			break
		}
		cnt += res.cnt
		if cnt >= k || plan[f] == n {
			winnerIdx = f
			break
		}
		// The round's band is an owned copy; only the winner's graph is
		// needed for enumeration.
		res.release()
		res.release = nil
		f++
	}
	cancel()
	wg.Wait()
	defer func() {
		for _, res := range results {
			if res != nil && res.release != nil {
				res.release()
			}
		}
	}()
	if rerr != nil {
		return rerr
	}
	if winnerIdx < 0 {
		return fmt.Errorf("core: parallel driver found no stopping round over %d rounds", len(plan))
	}
	r.ensureAcc(plan[start])
	for i := start; i <= winnerIdx; i++ {
		r.acc.appendCVS(results[i].band, r.flags)
		r.account(plan[i], results[i].cnt)
	}
	win := results[winnerIdx]
	r.g, r.pool, r.winRelease = win.g, win.pool, win.release
	win.release = nil
	return nil
}

// specRound is the outcome of one speculatively evaluated round: its band
// of new keynodes, as an owned CVS, and the graph it was computed on, kept
// alive — release non-nil — until the coordinator either enumerates it as
// the stopping round or rules it out.
type specRound struct {
	cnt     int
	band    *CVS
	g       *graph.Graph
	pool    *Pool
	release func()
	err     error
}

// evalSpecRound runs one γ-round on a forked source: materialize the
// prefix [0, p), peel its γ-core, and produce the band of keynodes with
// rank ≥ prev. It mirrors bandedRun.round, with pooled engines and CVS
// scratch checked out per round and returned before the result is handed
// back.
func evalSpecRound(ctx context.Context, fs ForkableSource, p, prev int, gamma int32, flags RunFlags, nc bool) *specRound {
	if err := ctx.Err(); err != nil {
		return &specRound{err: err}
	}
	src, release := fs.Fork(ctx)
	out := &specRound{release: release}
	g, err := src.Materialize(p)
	if err != nil {
		out.err = err
		return out
	}
	if g.NumVertices() < p {
		out.err = fmt.Errorf("core: source materialized %d vertices, prefix needs %d", g.NumVertices(), p)
		return out
	}
	var pool *Pool
	if ps, ok := src.(PooledSource); ok {
		pool = ps.SourcePool(g)
	}
	var eng *Engine
	var scratch *CVS
	if pool != nil {
		eng = pool.Get(gamma)
		scratch = pool.buffers.Get().(*CVS)
	} else {
		eng = NewEngine(g, gamma)
	}
	eng.SetContext(ctx)
	band, err := eng.RunInto(scratch, p, prev, flags)
	if err != nil {
		out.err = err
	} else {
		out.cnt = countOf(band, 0, nc)
		if scratch != nil {
			band = band.CompactTail(-1) // the scratch goes back to the pool
		}
		out.band, out.g, out.pool = band, g, pool
	}
	if pool != nil {
		pool.Put(eng)
		pool.buffers.Put(scratch)
	}
	return out
}
