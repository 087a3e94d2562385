package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"sync"

	"influcomm/internal/cluster"
	"influcomm/internal/graph"
)

// qkey is one fixed-shape top-k query.
type qkey struct {
	mode  string // cluster.ModeCore, ModeNonContainment or ModeTruss
	k     int
	gamma int32
}

// path is the query's /v1/topk request path, in the single-node flag
// spelling that the coordinator accepts too.
func (q qkey) path(dataset string) string {
	v := url.Values{}
	v.Set("k", strconv.Itoa(q.k))
	v.Set("gamma", strconv.Itoa(int(q.gamma)))
	switch q.mode {
	case cluster.ModeNonContainment:
		v.Set("noncontainment", "1")
	case cluster.ModeTruss:
		v.Set("truss", "1")
	}
	if dataset != "" {
		v.Set("dataset", dataset)
	}
	return "/v1/topk?" + v.Encode()
}

func (q qkey) op(dataset string) op {
	return op{method: http.MethodGet, path: q.path(dataset), q: q}
}

// render converts library communities to the wire shape every serving
// surface uses.
func render[C interface {
	Influence() float64
	Keynode() int32
	Vertices() []int32
}](g *graph.Graph, comms []C) []cluster.Community {
	var out []cluster.Community
	for _, c := range comms {
		out = append(out, cluster.Render(g, c.Influence(), c.Keynode(), c.Vertices()))
	}
	return out
}

// encodedDigest is the digest of the JSON encoding of comms, which is what
// a correct response carries byte for byte.
func encodedDigest(comms []cluster.Community) (uint64, error) {
	data, err := json.Marshal(comms)
	if err != nil {
		return 0, err
	}
	return digest(data), nil
}

// expectDigests computes the reference answer of every query in qs with
// answer, a library call. Queries of one (mode, γ) share one call with the
// largest k: a top-k answer is the k-prefix of any larger top-k answer.
func expectDigests(qs map[qkey]bool, workers int, answer func(mode string, k int, gamma int32) ([]cluster.Community, error)) (map[qkey]uint64, error) {
	type group struct {
		mode  string
		gamma int32
	}
	maxK := make(map[group]int)
	for q := range qs {
		g := group{q.mode, q.gamma}
		maxK[g] = max(maxK[g], q.k)
	}
	groups := make(chan group, len(maxK))
	for g := range maxK {
		groups <- g
	}
	close(groups)
	out := make(map[qkey]uint64, len(qs))
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := range groups {
				comms, err := answer(g.mode, maxK[g], g.gamma)
				for q := range qs {
					if err != nil || q.mode != g.mode || q.gamma != g.gamma {
						continue
					}
					var d uint64
					if d, err = encodedDigest(comms[:min(q.k, len(comms)):min(q.k, len(comms))]); err != nil {
						break
					}
					mu.Lock()
					out[q] = d
					mu.Unlock()
				}
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("reference answer for %s γ=%d: %w", g.mode, g.gamma, err)
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return out, firstErr
}

// checkTopK compares every successful answer with the library's reference
// and counts mismatches as failed operations.
func (b *bench) checkTopK(samples []sample, opAt func(int) op, answer func(mode string, k int, gamma int32) ([]cluster.Community, error)) error {
	qs := make(map[qkey]bool)
	for _, s := range samples {
		if s.ok() {
			qs[opAt(s.op).q] = true
		}
	}
	want, err := expectDigests(qs, clientCount(2), answer)
	if err != nil {
		return err
	}
	for _, s := range samples {
		if s.ok() && s.digest != want[opAt(s.op).q] {
			b.fail(1, true)
			if b.wrong <= 3 {
				fmt.Fprintf(os.Stderr, "wrong answer: %s\n", opAt(s.op).path)
			}
		}
	}
	b.env["checked_answers"] = len(samples)
	b.env["distinct_queries"] = len(qs)
	return nil
}

// serverStats is the part of a server's /v1/stats the benchmark reads.
type serverStats struct {
	IndexQueries int64 `json:"index_queries"`
	LocalQueries int64 `json:"local_queries"`
	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`
	PlanNodes    int64 `json:"plan_nodes"`
	CSEHits      int64 `json:"cse_hits"`
	Datasets     []struct {
		Name              string `json:"name"`
		Ready             bool   `json:"ready"`
		IndexQueries      int64  `json:"index_queries"`
		LocalQueries      int64  `json:"local_queries"`
		IndexState        string `json:"index_state"`
		IndexRebuilds     int64  `json:"index_rebuilds"`
		IndexDeltaRepairs int64  `json:"index_delta_repairs"`
		SnapshotEpoch     uint64 `json:"snapshot_epoch"`
	} `json:"datasets"`
}

func fetchStats(base string) (serverStats, error) {
	var st serverStats
	client := newClient()
	defer client.CloseIdleConnections()
	data, err := get(client, http.MethodGet, base+"/v1/stats", nil)
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(data, &st)
}

// setCacheRatio records the result-cache hit ratio of a server.
func (b *bench) setCacheRatio(st serverStats) {
	if n := st.CacheHits + st.CacheMisses; n > 0 {
		b.set("server.cache_hit_ratio", float64(st.CacheHits)/float64(n))
	}
}
