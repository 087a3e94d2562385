package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"

	"influcomm/internal/cluster"
	"influcomm/internal/core"
	"influcomm/internal/graph"
	"influcomm/internal/server"
	"influcomm/internal/store"
	"influcomm/internal/truss"
)

// Seed tags: each names one independent random stream of a workload.
const (
	tagGraph = iota + 1
	tagQueries
	tagWrites
	tagSeeds
)

// mixedBlock is the stratum of the local-mixed sequence: every block of
// 20 requests holds exactly 15 core, 3 non-containment and 2 truss
// queries in seeded order, so each run's mix is the same 75/15/10.
var mixedBlock = []string{
	cluster.ModeCore, cluster.ModeCore, cluster.ModeCore, cluster.ModeCore, cluster.ModeCore,
	cluster.ModeCore, cluster.ModeCore, cluster.ModeCore, cluster.ModeCore, cluster.ModeCore,
	cluster.ModeCore, cluster.ModeCore, cluster.ModeCore, cluster.ModeCore, cluster.ModeCore,
	cluster.ModeNonContainment, cluster.ModeNonContainment, cluster.ModeNonContainment,
	cluster.ModeTruss, cluster.ModeTruss,
}

// mixedSequence returns the local-mixed sequence. Core and
// non-containment queries have k in [1,100] and γ in [γmax/2, γmax], truss
// queries k in [1,20] and γ in [3,6]. Truss γ stays below the point where
// an answer needs the whole graph: at γ = 7 most seeds' graphs have fewer
// than 20 communities and the query scans all of it for longer than the
// server's 30s deadline (see README.md). Each mode walks through all of its
// (k, γ) cells in its own seeded order before it repeats one, so every run
// sends each cell in the same share, and a query never recurs while the
// 256-entry result cache could still hold it. (With k and γ drawn at
// random, 14-19% of requests hit the cache depending on the seed, and that
// share alone moved latency_p50_ms by up to 20%.)
func (b *bench) mixedSequence(gammaMax int32) func(i int) qkey {
	type family struct {
		ks, ng int   // k in [1, ks], γ in [g0, g0+ng)
		g0     int32 //
		cells  []int32
	}
	ng := int(gammaMax - gammaMax/2 + 1)
	fams := map[string]*family{
		cluster.ModeCore:           {ks: 100, ng: ng, g0: gammaMax / 2},
		cluster.ModeNonContainment: {ks: 100, ng: ng, g0: gammaMax / 2},
		cluster.ModeTruss:          {ks: 20, ng: 4, g0: 3},
	}
	for t, mode := range []string{cluster.ModeCore, cluster.ModeNonContainment, cluster.ModeTruss} {
		f := fams[mode]
		f.cells = b.rng(tagQueries+10+uint64(t), 0).Perm(f.ks * f.ng)
	}
	perBlock := map[string]int{}
	for _, mode := range mixedBlock {
		perBlock[mode]++
	}
	n := len(mixedBlock)
	return func(i int) qkey {
		perm := b.rng(tagQueries, i/n).Perm(n)
		mode := mixedBlock[perm[i%n]]
		j := i / n * perBlock[mode] // earlier queries of this mode
		for _, p := range perm[:i%n] {
			if mixedBlock[p] == mode {
				j++
			}
		}
		f := fams[mode]
		c := int(f.cells[j%len(f.cells)])
		return qkey{mode, 1 + c/f.ng, f.g0 + int32(c%f.ng)}
	}
}

// coreQuery maps two draws in [0,1) to a core-family query: k in [1,100]
// and γ in [γmax/2, γmax].
func coreQuery(kDraw, gDraw float64, mode string, gammaMax int32) qkey {
	return qkey{mode, 1 + int(kDraw*100), gammaMax/2 + int32(gDraw*float64(gammaMax-gammaMax/2+1))}
}

// stratum returns a draw in [0,1) for element i of the stream tag. The
// elements of one block of n fall into n distinct equal strata in seeded
// order, so every block covers the range evenly and runs of different
// seeds see the same spread of query sizes.
func (b *bench) stratum(tag uint64, i, n int) float64 {
	perm := b.rng(tag, i/n).Perm(n)
	return (float64(perm[i%n]) + b.rng(tag+1000, i).Float64()) / float64(n)
}

// engineAnswer is the library reference for an in-memory graph.
func engineAnswer(g *graph.Graph) func(string, int, int32) ([]cluster.Community, error) {
	tix := truss.NewIndex(g)
	return func(mode string, k int, gamma int32) ([]cluster.Community, error) {
		if mode == cluster.ModeTruss {
			res, err := truss.LocalSearch(tix, k, gamma)
			if err != nil {
				return nil, err
			}
			return render(g, res.Communities), nil
		}
		res, err := core.TopK(g, k, gamma, core.Options{NonContainment: mode == cluster.ModeNonContainment})
		if err != nil {
			return nil, err
		}
		return render(g, res.Communities), nil
	}
}

// topkCommunities picks the communities array out of a /v1/topk body.
func topkCommunities(body []byte) []byte { return between(body, `"communities":`, `,"elapsed_ms"`) }

// firstAnswers sends one request per query and fails unless each is a
// 200; set-up ends with these, so lazy state (truss indexes, engine
// pools) is built before the measured phase.
func firstAnswers(base string, ops ...op) error {
	client := newClient()
	defer client.CloseIdleConnections()
	for _, o := range ops {
		if _, err := get(client, o.method, base+o.path, o.body); err != nil {
			return err
		}
	}
	return nil
}

func runLocalMixed(b *bench) error {
	gi, err := b.input("social200k", func() (*graph.Graph, error) { return socialPR(200000, 16, b.subSeed(tagGraph)) })
	if err != nil {
		return err
	}
	queryAt := b.mixedSequence(gi.GammaMax)
	opAt := func(i int) op { return queryAt(i).op("") }

	var g *graph.Graph
	var hs *httpServer
	teardown := func() { hs.close() }
	setup := func() error {
		var err error
		if g, err = b.loadGraph(gi.Path); err != nil {
			return err
		}
		srv, err := server.New(g)
		if err != nil {
			return err
		}
		if hs, err = serve(traced(srv, b.tr, "server.handler")); err != nil {
			return err
		}
		return firstAnswers(hs.url,
			qkey{cluster.ModeCore, 10, gi.GammaMax / 2}.op(""),
			qkey{cluster.ModeNonContainment, 10, gi.GammaMax / 2}.op(""),
			qkey{cluster.ModeTruss, 10, 3}.op(""))
	}
	if err := b.repeatSetup(setup, teardown); err != nil {
		return err
	}
	defer teardown()

	phase := &loadPhase{base: hs.url, opAt: opAt, clients: 1, dur: b.dur,
		extract: topkCommunities, tr: b.tr}
	samples := phase.run()
	b.setE2E(samples, 95, statSlices(b.dur))
	st, err := fetchStats(hs.url)
	if err != nil {
		return err
	}
	b.setCacheRatio(st)

	if err := b.checkTopK(samples, opAt, engineAnswer(g)); err != nil {
		return err
	}
	if b.tr == nil {
		return nil
	}
	b.setHTTPLayer(samples)
	return b.engineLedger(g, queryAt, 40)
}

// engineLedger runs n queries of the fixed sequence through each layer in
// turn, sequentially and traced: the engine call (store.TopK or truss),
// rendering plus JSON encoding of its answer, and Server.ServeHTTP through
// a recorder on a cache-less server over the same graph. It ends with the
// tracing-overhead probe against that server over loopback HTTP.
func (b *bench) engineLedger(g *graph.Graph, queryAt func(int) qkey, n int) error {
	ctx := context.Background()
	mem, err := store.OpenMem(g)
	if err != nil {
		return err
	}
	srv, err := server.New(g, server.WithResultCache(0))
	if err != nil {
		return err
	}
	defer srv.Close()
	var tix *truss.Index

	var rounds, finalSize, totalWork int64
	var ratioMax float64
	var selfMSs []float64
	for i := 0; i < n; i++ {
		q := queryAt(i)
		req := int64(1<<40 + i)
		var comms []cluster.Community
		var engine span
		if q.mode == cluster.ModeTruss {
			if tix == nil {
				b.tr.timed("truss.index_build", 0, 0, func() { tix = truss.NewIndex(g) })
			}
			var res *truss.Result
			engine = b.tr.timed("truss.topk", req, 0, func() { res, err = truss.LocalSearchCtx(ctx, tix, q.k, q.gamma) })
			if err != nil {
				return err
			}
			comms = render(g, res.Communities)
		} else {
			var res *core.Result
			engine = b.tr.timed("store.topk."+q.mode, req, 0, func() {
				res, err = mem.TopK(ctx, q.k, q.gamma, core.Options{NonContainment: q.mode == cluster.ModeNonContainment})
			})
			if err != nil {
				return err
			}
			comms = render(g, res.Communities)
			st := res.Stats
			rounds += int64(st.Rounds)
			finalSize += st.FinalSize
			totalWork += st.TotalWork
			ratioMax = max(ratioMax, float64(st.TotalWork)/float64(st.FinalSize))
		}
		var want []byte
		b.tr.timed("server.render_encode", req, 0, func() { want, err = json.Marshal(comms) })
		if err != nil {
			return err
		}
		rec := httptest.NewRecorder()
		hreq := httptest.NewRequest(http.MethodGet, q.path(""), nil)
		serveSpan := b.tr.timed("server.serve", req, 0, func() { srv.ServeHTTP(rec, hreq) })
		if rec.Code != http.StatusOK || string(topkCommunities(rec.Body.Bytes())) != string(want) {
			return fmt.Errorf("ledger: ServeHTTP answer for %s differs from the engine's", q.path(""))
		}
		selfMSs = append(selfMSs, float64(serveSpan.dur()-engine.dur())/1e6)
	}
	ls := b.tr.layers()
	b.set("graph.load_s", meanMS(ls, "graph.load")/1e3)
	b.set("truss.index_build_ms", meanMS(ls, "truss.index_build"))
	b.set("store.topk_ms.core", meanMS(ls, "store.topk.core"))
	b.set("store.topk_ms.noncontainment", meanMS(ls, "store.topk.noncontainment"))
	b.set("truss.topk_ms", meanMS(ls, "truss.topk"))
	b.set("server.render_encode_ms", meanMS(ls, "server.render_encode"))
	b.set("server.serve_ms", meanMS(ls, "server.serve"))
	// A median, because the engine and ServeHTTP calls are separate runs
	// of the same query and their difference is noisy on long queries.
	b.set("server.self_ms", median(selfMSs))
	b.set("core.rounds", float64(rounds))
	b.set("core.final_size", float64(finalSize))
	b.set("core.total_work", float64(totalWork))
	b.set("core.work_ratio_max", ratioMax)

	hs, err := serve(traced(srv, b.tr, "probe.handler"))
	if err != nil {
		return err
	}
	defer hs.close()
	return b.overheadProbe(hs.url, func(i int) op {
		q := queryAt(i)
		q.mode = cluster.ModeCore // one cheap, deterministic request shape
		return q.op("")
	}, 2*n)
}
