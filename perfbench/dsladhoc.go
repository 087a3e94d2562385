package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"

	"influcomm"
	"influcomm/internal/cluster"
	"influcomm/internal/graph"
	"influcomm/internal/query"
	"influcomm/internal/queryweight"
	"influcomm/internal/server"
	"influcomm/internal/truss"
)

// dslPool is how many distinct topk statements dsl-adhoc draws from. A
// small pool with overlapping γ ranges makes batches share plan nodes.
const dslPool = 6

// dslPoolStatement is statement j of the workload's topk pool: both core
// and non-containment semantics over a two- or three-wide γ range in
// [2, 8].
func (b *bench) dslPoolStatement(j int) string {
	r := b.rng(tagQueries+200, j)
	lo := 2 + r.Intn(5)
	return fmt.Sprintf("topk(k=%d, gamma=%d..%d, semantics=core+noncontainment)", 5*(1+r.Intn(4)), lo, lo+1+r.Intn(2))
}

// dslBatch is element i of the dsl-adhoc sequence: one near statement
// over 1–8 fresh seed vertices, then two topk statements from the pool.
func (b *bench) dslBatch(i, n int) string {
	r := b.rng(tagSeeds, i)
	seeds := make([]string, 1+r.Intn(8))
	for j := range seeds {
		seeds[j] = strconv.Itoa(r.Intn(n))
	}
	lo := 2 + r.Intn(5)
	near := fmt.Sprintf("near(seeds=[%s], k=%d, gamma=%d..%d)", strings.Join(seeds, ","), 1+r.Intn(20), lo, lo+1)
	return near + "; " + b.dslPoolStatement(r.Intn(dslPool)) + "; " + b.dslPoolStatement(r.Intn(dslPool))
}

func dslOp(src string) op {
	body, _ := json.Marshal(map[string]string{"query": src}) // a string map always encodes
	return op{method: http.MethodPost, path: "/v1/query", body: body}
}

func runDSLAdhoc(b *bench) error {
	gi, err := b.input("social50k", func() (*graph.Graph, error) { return socialPR(50000, 16, b.subSeed(tagGraph)) })
	if err != nil {
		return err
	}
	opAt := func(i int) op { return dslOp(b.dslBatch(i, gi.N)) }

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
		// A batch that is not part of the sequence (its index is beyond
		// any run) warms the reweighting and search paths.
		return firstAnswers(hs.url, opAt(1<<30))
	}
	if err := b.repeatSetup(setup, teardown); err != nil {
		return err
	}
	defer teardown()

	phase := &loadPhase{base: hs.url, opAt: opAt, clients: clientCount(2), dur: b.dur, tr: b.tr}
	samples := phase.run()
	// A statWindow slice would hold about 40 batches, too few for its p75
	// to leave 10 beyond it; the whole measured phase is one slice.
	b.setE2E(samples, 75, 1)
	st, err := fetchStats(hs.url)
	if err != nil {
		return err
	}
	if err := b.checkDSL(g, samples, func(i int) string { return b.dslBatch(i, gi.N) }); err != nil {
		return err
	}
	if b.tr == nil {
		return nil
	}
	b.setHTTPLayer(samples)
	if st.PlanNodes > 0 {
		b.set("query.cse_ratio", float64(st.CSEHits)/float64(st.PlanNodes))
	}
	if err := b.dslLedger(g, func(i int) string { return b.dslBatch(i, gi.N) }, 8); err != nil {
		return err
	}
	if err := b.engineLedger(g, func(i int) qkey {
		return coreQuery(b.stratum(tagQueries+1, i, 20), b.stratum(tagQueries+2, i, 20), cluster.ModeCore, gi.GammaMax)
	}, 20); err != nil {
		return err
	}
	return b.writeMixLayers(gi)
}

// dslResponse is the part of a /v1/query answer the check compares.
type dslResponse struct {
	Results []struct {
		Nodes []struct {
			K           int             `json:"k"`
			Gamma       int             `json:"gamma"`
			Mode        string          `json:"mode"`
			Communities json.RawMessage `json:"communities"`
		} `json:"nodes"`
	} `json:"results"`
}

// checkDSL compares every answered batch with the root package's
// RunQuery, statement by statement (pool statements are run once).
func (b *bench) checkDSL(g *graph.Graph, samples []sample, batchAt func(int) string) error {
	var mu sync.Mutex
	memo := make(map[string][]influcomm.QueryNode)
	run := func(stmt string) ([]influcomm.QueryNode, error) {
		mu.Lock()
		nodes, ok := memo[stmt]
		mu.Unlock()
		if ok {
			return nodes, nil
		}
		out, err := influcomm.RunQuery(context.Background(), g, stmt)
		if err != nil {
			return nil, err
		}
		if !strings.HasPrefix(stmt, "near") {
			mu.Lock()
			memo[stmt] = out[0].Nodes
			mu.Unlock()
		}
		return out[0].Nodes, nil
	}
	// check reports whether one successful answer matches the reference.
	check := func(s sample) (bool, error) {
		var resp dslResponse
		if err := json.Unmarshal(s.body, &resp); err != nil {
			return false, nil
		}
		stmts := strings.Split(batchAt(s.op), "; ")
		if len(resp.Results) != len(stmts) {
			return false, nil
		}
		for i, stmt := range stmts {
			want, err := run(stmt)
			if err != nil {
				return false, err
			}
			got := resp.Results[i].Nodes
			if len(got) != len(want) {
				return false, nil
			}
			for j, w := range want {
				enc, err := json.Marshal(w.Communities)
				if err != nil {
					return false, err
				}
				if got[j].K != w.K || got[j].Gamma != w.Gamma || got[j].Mode != w.Mode || !sameCommunities(got[j].Communities, enc) {
					return false, nil
				}
			}
		}
		return true, nil
	}

	work := make(chan sample)
	var wg sync.WaitGroup
	var firstErr error
	var wrong int64
	for w := 0; w < clientCount(2); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range work {
				ok, err := check(s)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				if err == nil && !ok {
					wrong++
				}
				mu.Unlock()
			}
		}()
	}
	for _, s := range samples {
		if s.ok() {
			work <- s
		}
	}
	close(work)
	wg.Wait()
	if firstErr != nil {
		return fmt.Errorf("reference query: %w", firstErr)
	}
	if wrong > 0 {
		fmt.Fprintf(os.Stderr, "%d wrong /v1/query answers\n", wrong)
		b.fail(wrong, true)
	}
	return nil
}

// sameCommunities compares an encoded answer with the reference encoding;
// an empty answer may be encoded as null or as [].
func sameCommunities(got, want []byte) bool {
	empty := func(b []byte) bool { return string(b) == "null" || string(b) == "[]" }
	return bytes.Equal(got, want) || (empty(got) && empty(want))
}

// dslLedger times the DSL layers on n batches of the sequence: parsing
// plus planning, and the seed reweighting of each near statement. It ends
// with the full-graph truss probe on the same graph.
func (b *bench) dslLedger(g *graph.Graph, batchAt func(int) string, n int) error {
	for i := 0; i < n; i++ {
		src := batchAt(i)
		req := int64(1<<40 + i)
		var q *query.Query
		var err error
		b.tr.timed("query.parse_plan", req, 0, func() {
			if q, err = query.Parse(src); err == nil {
				_, err = query.PlanQuery(q, nil)
			}
		})
		if err != nil {
			return err
		}
		for _, st := range q.Statements {
			if st.Source.Near() {
				b.tr.timed("queryweight.reweight", req, 0, func() { _, err = queryweight.Reweight(g, st.Source.Seeds) })
				if err != nil {
					return err
				}
			}
		}
	}
	// The truss cliff: a query whose answer needs the whole graph.
	var tix *truss.Index
	var err error
	b.tr.timed("truss.full_graph", 0, 0, func() {
		tix = truss.NewIndex(g)
		_, err = truss.LocalSearchCtx(context.Background(), tix, 10, 8)
	})
	if err != nil {
		return err
	}
	ls := b.tr.layers()
	b.set("query.parse_plan_us", meanMS(ls, "query.parse_plan")*1e3)
	b.set("queryweight.reweight_ms", meanMS(ls, "queryweight.reweight"))
	b.set("truss.full_graph_s", meanMS(ls, "truss.full_graph")/1e3)
	return nil
}
