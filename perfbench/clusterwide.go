package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync/atomic"
	"time"

	"influcomm/internal/cluster"
	"influcomm/internal/core"
	"influcomm/internal/graph"
	"influcomm/internal/index"
	"influcomm/internal/server"
)

// shardMeter wraps a shard server's handler: it counts the bytes the shard
// streams and, while the sequential ledger runs, records each shard request
// as a child span of the coordinator call that caused it.
type shardMeter struct {
	h      http.Handler
	tr     *tracer
	parent *atomic.Int64 // the ledger's open coordinator span; 0 outside it
	bytes  atomic.Int64
}

func (m *shardMeter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	cw := &countingWriter{ResponseWriter: w}
	if parent := m.parent.Load(); parent != 0 {
		sp := m.tr.begin("shard.serve", 0, parent)
		m.h.ServeHTTP(cw, r)
		m.tr.end(sp)
	} else {
		m.h.ServeHTTP(cw, r)
	}
	m.bytes.Add(cw.n)
}

// countingWriter counts body bytes and keeps the stream flushable.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// clusterQuery is element i of the cluster-wide sequence: core queries
// with k log-uniform in [10, 1000] and γ uniform in [2, γmax]. Each block
// of the sequence visits every (k stratum, γ) cell once, so the query mix
// of a run barely depends on the seed.
func (b *bench) clusterQuery(i int, gammaMax int32) qkey {
	const kStrata = 16
	gammas := int(gammaMax) - 1
	cells := kStrata * gammas
	c := int(b.rng(tagQueries, i/cells).Perm(cells)[i%cells])
	u := (float64(c/gammas) + b.rng(tagQueries+1, i).Float64()) / kStrata
	return qkey{cluster.ModeCore, int(math.Round(10 * math.Pow(100, u))), 2 + int32(c%gammas)}
}

// clusterSetup is one coordinator in front of its shard servers.
type clusterSetup struct {
	parts  []*graph.Graph
	ixs    []*index.Index
	meters []*shardMeter
	shards []*httpServer
	coord  *cluster.Coordinator
	front  *httpServer
	tport  *http.Transport
}

func (c *clusterSetup) close() {
	if c.front != nil {
		c.front.close()
	}
	if c.coord != nil {
		c.coord.Close()
	}
	for _, s := range c.shards {
		s.close()
	}
	if c.tport != nil {
		c.tport.CloseIdleConnections()
	}
}

func runClusterWide(b *bench) error {
	gi, err := b.input("components4x50k", func() (*graph.Graph, error) {
		return disjointSocialPR(4, 50000, 12, b.subSeed(tagGraph))
	})
	if err != nil {
		return err
	}
	queryAt := func(i int) qkey { return b.clusterQuery(i, gi.GammaMax) }
	opAt := func(i int) op { return queryAt(i).op("") }
	var ledgerParent atomic.Int64

	var cs *clusterSetup
	teardown := func() { cs.close() }
	setup := func() error {
		cs = &clusterSetup{}
		g, err := b.loadGraph(gi.Path)
		if err != nil {
			return err
		}
		b.tr.timed("cluster.partition", 0, 0, func() { cs.parts, err = cluster.Partition(g, 4) })
		if err != nil {
			return err
		}
		var shards []cluster.Shard
		for i, part := range cs.parts {
			var ix *index.Index
			b.tr.timed("index.build", 0, 0, func() { ix, err = index.Build(part) })
			if err != nil {
				return err
			}
			srv, err := server.New(part, server.WithIndex(ix))
			if err != nil {
				return err
			}
			m := &shardMeter{h: srv, tr: b.tr, parent: &ledgerParent}
			hs, err := serve(m)
			if err != nil {
				return err
			}
			cs.ixs, cs.meters, cs.shards = append(cs.ixs, ix), append(cs.meters, m), append(cs.shards, hs)
			shards = append(shards, cluster.Shard{Name: fmt.Sprintf("s%d", i), Replicas: []string{hs.url}})
		}
		cs.tport = http.DefaultTransport.(*http.Transport).Clone()
		if cs.coord, err = cluster.NewCoordinator(shards, cluster.WithHTTPClient(&http.Client{Transport: cs.tport})); err != nil {
			return err
		}
		if cs.front, err = serve(traced(cluster.NewHandler(cs.coord, 10000), b.tr, "cluster.handler")); err != nil {
			return err
		}
		return firstAnswers(cs.front.url, qkey{cluster.ModeCore, 10, 2}.op(""))
	}
	if err := b.repeatSetup(setup, teardown); err != nil {
		return err
	}
	defer teardown()
	b.env["shards"] = len(cs.parts)

	phase := &loadPhase{base: cs.front.url, opAt: opAt, clients: 1, dur: b.dur,
		extract: func(body []byte) []byte { return between(body, `"communities":`, `,"epochs"`) }, tr: b.tr}
	samples := phase.run()
	// One block of the sequence (every k stratum at every γ) takes about
	// as long as a statWindow slice, so slices would each see a different
	// mix of k; the whole measured phase is one slice instead.
	b.setE2E(samples, 95, 1)

	// The coordinator's answers must equal the unpartitioned graph's index
	// answers byte for byte.
	g, err := graph.LoadFile(gi.Path)
	if err != nil {
		return err
	}
	ix, err := index.Build(g)
	if err != nil {
		return err
	}
	if err := b.checkTopK(samples, opAt, func(_ string, k int, gamma int32) ([]cluster.Community, error) {
		comms, err := ix.TopK(k, gamma)
		return render(g, comms), err
	}); err != nil {
		return err
	}
	if b.tr == nil {
		return nil
	}
	b.setHTTPLayer(samples)
	st := cs.coord.Stats()
	b.set("cluster.failovers", float64(st.Failovers))
	b.set("cluster.retries", float64(st.Retries))
	var served, local int64
	for _, s := range cs.shards {
		sst, err := fetchStats(s.url)
		if err != nil {
			return err
		}
		served += sst.IndexQueries
		local += sst.LocalQueries
	}
	if served+local > 0 {
		b.set("index.served_share", float64(served)/float64(served+local))
	}
	return b.clusterLedger(cs, queryAt, &ledgerParent, 40)
}

// clusterLedger runs n queries of the sequence, sequentially and traced,
// through Coordinator.TopK (with each shard's stream recorded as a child
// span), then through each shard's index and renderer.
func (b *bench) clusterLedger(cs *clusterSetup, queryAt func(int) qkey, parent *atomic.Int64, n int) error {
	ctx := context.Background()
	var coordSelf time.Duration
	var shardBytes, mergedBytes int64
	var indexSum time.Duration
	for i := 0; i < n; i++ {
		q := queryAt(i)
		req := int64(1<<40 + i)
		before := int64(0)
		for _, m := range cs.meters {
			before += m.bytes.Load()
		}
		sp := b.tr.begin("cluster.topk", req, 0)
		parent.Store(sp.ID)
		res, err := cs.coord.TopK(ctx, "", q.k, q.gamma, q.mode)
		parent.Store(0)
		sp = b.tr.end(sp)
		if err != nil {
			return err
		}
		for _, m := range cs.meters {
			shardBytes += m.bytes.Load()
		}
		shardBytes -= before
		merged, err := json.Marshal(res.Communities)
		if err != nil {
			return err
		}
		mergedBytes += int64(len(merged))
		var slowest time.Duration
		for _, c := range b.tr.children(sp.ID) {
			slowest = max(slowest, c.dur())
		}
		coordSelf += sp.dur() - slowest

		for j, ix := range cs.ixs {
			var comms []*core.Community
			s := b.tr.timed("index.topk", req, 0, func() { comms, err = ix.TopK(q.k, q.gamma) })
			if err != nil {
				return err
			}
			indexSum += s.dur()
			b.tr.timed("server.render_encode", req, 0, func() { _, err = json.Marshal(render(cs.parts[j], comms)) })
			if err != nil {
				return err
			}
		}
	}
	ls := b.tr.layers()
	b.set("graph.load_s", meanMS(ls, "graph.load")/1e3)
	b.set("index.build_s", totalS(ls, "index.build")/setupRuns)
	b.set("cluster.topk_ms", meanMS(ls, "cluster.topk"))
	b.set("cluster.self_ms", float64(coordSelf)/float64(n)/1e6)
	if mergedBytes > 0 {
		b.set("cluster.shard_bytes_ratio", float64(shardBytes)/float64(mergedBytes))
	}
	// Per query: the shards' index lookups and renders together, and the
	// shard servers' stream time beyond their index lookups, per shard.
	b.set("index.topk_ms", float64(indexSum)/float64(n)/1e6)
	b.set("server.render_encode_ms", totalS(ls, "server.render_encode")*1e3/float64(n))
	if s := ls["shard.serve"]; s != nil && s.n > 0 {
		b.set("server.serve_ms", meanMS(ls, "shard.serve"))
		b.set("server.self_ms", float64(s.total-indexSum)/float64(s.n)/1e6)
	}
	return b.overheadProbe(cs.front.url, func(i int) op { return queryAt(i).op("") }, n)
}
