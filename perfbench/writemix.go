package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"

	"influcomm/internal/cluster"
	"influcomm/internal/core"
	"influcomm/internal/graph"
	"influcomm/internal/index"
	"influcomm/internal/server"
	"influcomm/internal/store"
)

const (
	// liveDataset is the mutable dataset write-mix reads and writes.
	liveDataset = "live"
	// batchEdges is the size of one update batch: half inserts of absent
	// edges, half deletes of present ones, so the edge count holds.
	batchEdges = 64
	// batchEvery is the writer's open-loop period (2 batches/s).
	batchEvery = 500 * time.Millisecond
	// uniformEvery: batch i with i % uniformEvery == uniformAt draws its
	// endpoints from all ranks, which sends index maintenance down its
	// background-rebuild path; the others stay in the lowest-influence 20%
	// of ranks and are delta-repaired. Fixed positions keep the share of
	// the run spent rebuilding the same across seeds.
	uniformEvery = 10
	uniformAt    = 5
)

type edgeKey [2]int32 // weight ranks, lower first

func mkEdge(u, v int32) edgeKey {
	if u > v {
		u, v = v, u
	}
	return edgeKey{u, v}
}

// updateBatches generates the writer's batches by simulating the edge set
// they act on, so every insert targets an absent edge and every delete a
// present one when the batches are applied in order.
func (b *bench) updateBatches(g *graph.Graph, count int) [][]store.EdgeUpdate {
	n := g.NumVertices()
	lowFrom := int32(n - n/5)
	present := func(e edgeKey, delta map[edgeKey]bool) bool {
		if v, ok := delta[e]; ok {
			return v
		}
		return g.HasEdge(e[0], e[1])
	}
	// Edges with both endpoints in the low-influence ranks, the pool that
	// low batches delete from (and add their inserts to).
	var lowPool []edgeKey
	for u := lowFrom; int(u) < n; u++ {
		for _, v := range g.Neighbors(u) {
			if v > u {
				lowPool = append(lowPool, edgeKey{u, v})
			}
		}
	}
	delta := make(map[edgeKey]bool) // edges whose presence the batches flipped
	var out [][]store.EdgeUpdate
	for i := 0; i < count; i++ {
		r := b.rng(tagWrites, i)
		uniform := i%uniformEvery == uniformAt
		lo := lowFrom
		if uniform {
			lo = 0
		}
		span := n - int(lo)
		chosen := make(map[edgeKey]bool)
		var batch []store.EdgeUpdate
		add := func(e edgeKey, del bool) {
			chosen[e] = true
			delta[e] = !del
			batch = append(batch, store.EdgeUpdate{U: g.OrigID(e[0]), V: g.OrigID(e[1]), Delete: del})
		}
		for len(batch) < batchEdges/2 {
			e := mkEdge(lo+int32(r.Intn(span)), lo+int32(r.Intn(span)))
			if e[0] == e[1] || chosen[e] || present(e, delta) {
				continue
			}
			add(e, false)
			if !uniform {
				lowPool = append(lowPool, e)
			}
		}
		for len(batch) < batchEdges {
			var e edgeKey
			if uniform {
				u := int32(r.Intn(n))
				nb := g.Neighbors(u)
				if len(nb) == 0 {
					continue
				}
				e = mkEdge(u, nb[r.Intn(len(nb))])
			} else {
				j := r.Intn(len(lowPool))
				e = lowPool[j]
				lowPool[j] = lowPool[len(lowPool)-1]
				lowPool = lowPool[:len(lowPool)-1]
			}
			if chosen[e] || !present(e, delta) {
				continue
			}
			add(e, true)
		}
		out = append(out, batch)
	}
	return out
}

// updatesBody is the JSON body of one update batch.
func updatesBody(batch []store.EdgeUpdate) ([]byte, error) {
	type update struct {
		Op string `json:"op"`
		U  int32  `json:"u"`
		V  int32  `json:"v"`
	}
	var req struct {
		Updates []update `json:"updates"`
	}
	for _, u := range batch {
		op := "insert"
		if u.Delete {
			op = "delete"
		}
		req.Updates = append(req.Updates, update{op, u.U, u.V})
	}
	return json.Marshal(req)
}

// writeResult is one update batch as the open-loop writer saw it.
type writeResult struct {
	lag, latency time.Duration // send and completion, from the due time
	ok           bool
}

// writer sends bodies[i] at start + i·batchEvery until the phase ends,
// timing each from its due time.
func writer(base string, bodies [][]byte, start time.Time, dur time.Duration) []writeResult {
	client := newClient()
	defer client.CloseIdleConnections()
	var out []writeResult
	for i, body := range bodies {
		due := start.Add(time.Duration(i) * batchEvery)
		if due.Sub(start) >= dur {
			break
		}
		time.Sleep(time.Until(due))
		sent := time.Now()
		data, err := get(client, http.MethodPost, base+"/v1/admin/datasets/"+liveDataset+"/updates", body)
		res := writeResult{lag: sent.Sub(due), latency: time.Since(due), ok: err == nil}
		if err == nil {
			var resp struct{ Inserted, Deleted, Skipped int }
			res.ok = json.Unmarshal(data, &resp) == nil &&
				resp.Inserted == batchEdges/2 && resp.Deleted == batchEdges/2 && resp.Skipped == 0
		}
		out = append(out, res)
	}
	return out
}

// writeMixLayers is the write-mix phase of a traced dsl-adhoc run, on the
// same graph: the graph as a mutable dataset with a prebuilt index and
// Reindex "auto", one open-loop writer and one closed-loop reader for the
// run's duration. It reports the write path's per-layer metrics. (Run as a
// workload of its own, its read latencies spread with the shared host's
// speed far more than its bounds allowed; see README.md.)
func (b *bench) writeMixLayers(gi graphInfo) error {
	// The reader cycles through every core query (k in [1,100], γ in
	// [γmax/2, γmax]) in seeded order, and every fourth read repeats the
	// read three before it. A cycle outlasts several writes, so only those
	// repeats can hit the result cache, and they miss only when a write
	// bumped the epoch in between. The hit ratio is then about 1/4 however
	// fast the machine runs; with repeats left to chance it grew with the
	// number of reads between two writes, which amplified run-to-run
	// differences in speed.
	ng := int(gi.GammaMax - gi.GammaMax/2 + 1)
	cells := b.rng(tagQueries, 0).Perm(100 * ng)
	queryAt := func(i int) qkey {
		if i%4 == 3 {
			i -= 3
		}
		c := int(cells[(i/4*3+i%4)%len(cells)])
		return qkey{cluster.ModeCore, 1 + c/ng, gi.GammaMax/2 + int32(c%ng)}
	}
	opAt := func(i int) op { return queryAt(i).op(liveDataset) }

	base, err := graph.LoadFile(gi.Path)
	if err != nil {
		return err
	}
	batches := b.updateBatches(base, int(b.dur/batchEvery)+1)
	bodies := make([][]byte, len(batches))
	for i, batch := range batches {
		if bodies[i], err = updatesBody(batch); err != nil {
			return err
		}
	}

	g, err := graph.LoadFile(gi.Path)
	if err != nil {
		return err
	}
	var ix *index.Index
	b.tr.timed("index.build", 0, 0, func() { ix, err = index.Build(g) })
	if err != nil {
		return err
	}
	ms, err := store.OpenMutableGraph(g)
	if err != nil {
		return err
	}
	srv, err := server.New(g, server.WithDataset(liveDataset, server.DatasetConfig{Store: ms, Index: ix, Reindex: "auto"}))
	if err != nil {
		return err
	}
	defer srv.Close()
	hs, err := serve(srv)
	if err != nil {
		return err
	}
	defer hs.close()
	if err := firstAnswers(hs.url, queryAt(0).op(liveDataset)); err != nil {
		return err
	}

	// The reader is not traced, so that the run's HTTP spans stay those of
	// the dsl-adhoc phase.
	phase := &loadPhase{base: hs.url, opAt: opAt, clients: 1, dur: b.dur, extract: topkCommunities}
	var writes []writeResult
	done := make(chan struct{})
	go func() {
		defer close(done)
		writes = writer(hs.url, bodies, time.Now().Add(warmup), b.dur)
	}()
	samples := phase.run()
	<-done
	b.count(samples)
	var lags, lats []float64
	for _, w := range writes {
		b.attempted++
		if !w.ok {
			b.fail(1, false)
		}
		lags = append(lags, float64(w.lag)/1e6)
		lats = append(lats, float64(w.latency)/1e6)
	}
	sort.Float64s(lats)
	b.set("update_p50_ms", pct(lats, 50))
	b.set("update_tail_ms", pct(lats, 90))
	b.set("loadgen.writer_lag_ms", mean(lags))
	b.env["update_samples"] = len(lats)
	b.env["update_tail_pct"] = 90

	st, err := b.settle(hs.url)
	if err != nil {
		return err
	}
	b.setCacheRatio(st)
	for _, d := range st.Datasets {
		if d.Name == liveDataset {
			b.set("index.repairs", float64(d.IndexDeltaRepairs))
			b.set("index.rebuilds", float64(d.IndexRebuilds))
			if n := d.IndexQueries + d.LocalQueries; n > 0 {
				b.set("index.served_share", float64(d.IndexQueries)/float64(n))
			}
		}
	}
	if err := b.checkFinal(hs.url, ms, opAt, 32); err != nil {
		return err
	}
	return b.writeLedger(base, queryAt, batches, 40)
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// settle waits until index maintenance has caught up with the last write.
func (b *bench) settle(base string) (serverStats, error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := fetchStats(base)
		if err != nil {
			return st, err
		}
		for _, d := range st.Datasets {
			if d.Name == liveDataset && d.Ready && d.IndexState == "attached" {
				return st, nil
			}
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("index maintenance did not settle within 60s")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// checkFinal compares n sampled index-served answers on the final
// snapshot with LocalSearch on that snapshot, counting mismatches as
// failed operations.
func (b *bench) checkFinal(base string, ms store.MutableStore, opAt func(int) op, n int) error {
	g, _ := ms.Snapshot()
	client := newClient()
	defer client.CloseIdleConnections()
	for i := 0; i < n; i++ {
		o := opAt(i)
		body, err := get(client, o.method, base+o.path, nil)
		b.attempted++
		if err != nil {
			b.fail(1, false)
			continue
		}
		res, err := core.TopK(g, o.q.k, o.q.gamma, core.Options{})
		if err != nil {
			return err
		}
		want, err := json.Marshal(render(g, res.Communities))
		if err != nil {
			return err
		}
		if string(topkCommunities(body)) != string(want) {
			b.fail(1, true)
		}
	}
	return nil
}

// writeLedger times the write path's layers on the run's own inputs:
// MutableStore.ApplyUpdates over the same batches on a store without an
// index, and index.TopK for n queries of the read sequence.
func (b *bench) writeLedger(g *graph.Graph, queryAt func(int) qkey, batches [][]store.EdgeUpdate, n int) error {
	ctx := context.Background()
	ms, err := store.OpenMutableGraph(g)
	if err != nil {
		return err
	}
	defer ms.Close()
	for i, batch := range batches {
		b.tr.timed("mutable.apply", int64(1<<45+i), 0, func() { _, err = ms.ApplyUpdates(ctx, batch) })
		if err != nil {
			return err
		}
	}
	ix, err := index.Build(g)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		q := queryAt(i)
		b.tr.timed("index.topk", int64(1<<40+i), 0, func() { _, err = ix.TopK(q.k, q.gamma) })
		if err != nil {
			return err
		}
	}
	ls := b.tr.layers()
	b.set("index.build_s", meanMS(ls, "index.build")/1e3)
	b.set("mutable.apply_ms", meanMS(ls, "mutable.apply"))
	b.set("index.topk_ms", meanMS(ls, "index.topk"))
	return nil
}
