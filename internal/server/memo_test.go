package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
)

// The memo tests pin the one-memo design: /v1/topk is the one-node plan of
// its DSL spelling, so both surfaces execute through the dataset's Sharer.
// Their names carry "CSE" so the race determinism job runs them.

// TestCSETopKConcurrentIdenticalExecuteOnce: identical /v1/topk requests
// fired together execute the search once; every other request is served
// by the shared result and says so.
func TestCSETopKConcurrentIdenticalExecuteOnce(t *testing.T) {
	s, ts := dslBackendsServer(t)
	ds := s.registry.acquireLookup(DefaultDataset)
	if ds == nil {
		t.Fatal("default dataset missing")
	}
	defer ds.release()
	var execs atomic.Int64
	ds.sharer.SetExecHook(func(string) { execs.Add(1) })
	defer ds.sharer.SetExecHook(nil)

	const n = 8
	var wg sync.WaitGroup
	var cached atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var resp topKResponse
			if code := getJSON(t, ts.URL+"/v1/topk?k=3&gamma=2", &resp); code != http.StatusOK {
				t.Errorf("status %d", code)
			}
			if resp.Cached {
				cached.Add(1)
			}
		}()
	}
	wg.Wait()

	if got := execs.Load(); got != 1 {
		t.Errorf("%d identical concurrent requests executed %d times, want 1", n, got)
	}
	if got := cached.Load(); got != n-1 {
		t.Errorf("%d responses marked cached, want %d", got, n-1)
	}
	var st statsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if st.CacheHits != n-1 || st.CacheMisses != 1 || st.LocalQueries != 1 {
		t.Errorf("cache hits=%d misses=%d local=%d, want %d/1/1", st.CacheHits, st.CacheMisses, st.LocalQueries, n-1)
	}
}

// TestCSETopKSharesWithQueryNode: a /v1/topk request and the equal
// /v1/query node are one computation, in either order, and their
// communities are byte-identical.
func TestCSETopKSharesWithQueryNode(t *testing.T) {
	s, ts := dslBackendsServer(t)
	ds := s.registry.acquireLookup(DefaultDataset)
	if ds == nil {
		t.Fatal("default dataset missing")
	}
	defer ds.release()
	var execs atomic.Int64
	ds.sharer.SetExecHook(func(string) { execs.Add(1) })
	defer ds.sharer.SetExecHook(nil)

	topk := func(params string) (json.RawMessage, bool) {
		var body struct {
			Communities json.RawMessage `json:"communities"`
			Cached      bool            `json:"cached"`
		}
		if code := getJSON(t, ts.URL+"/v1/topk?"+params, &body); code != http.StatusOK {
			t.Fatalf("topk %s: status %d", params, code)
		}
		return body.Communities, body.Cached
	}
	dsl := func(src string) (json.RawMessage, bool) {
		code, raw := postQuery(t, ts, fmt.Sprintf(`{"query":%q}`, src))
		if code != http.StatusOK {
			t.Fatalf("query %s: status %d: %s", src, code, raw)
		}
		var qr rawQueryResponse
		if err := json.Unmarshal(raw, &qr); err != nil {
			t.Fatal(err)
		}
		n := qr.Results[0].Nodes[0]
		return n.Communities, n.Shared
	}

	for _, mode := range []struct{ param, sem string }{
		{"", "core"},
		{"&noncontainment=1", "noncontainment"},
		{"&truss=1", "truss"},
	} {
		// /v1/topk first, then the DSL node.
		before := execs.Load()
		first, firstCached := topk("k=2&gamma=2" + mode.param)
		second, shared := dsl("topk(k=2, gamma=2, semantics=" + mode.sem + ")")
		if firstCached || !shared {
			t.Errorf("%s topk→query: cached=%v shared=%v, want false/true", mode.sem, firstCached, shared)
		}
		if string(first) != string(second) {
			t.Errorf("%s topk→query communities differ:\ntopk %s\ndsl  %s", mode.sem, first, second)
		}
		if got := execs.Load() - before; got != 1 {
			t.Errorf("%s topk→query executed %d times, want 1", mode.sem, got)
		}

		// The DSL node first, then /v1/topk.
		before = execs.Load()
		first, firstShared := dsl("topk(k=3, gamma=2, semantics=" + mode.sem + ")")
		second, cached := topk("k=3&gamma=2" + mode.param)
		if firstShared || !cached {
			t.Errorf("%s query→topk: shared=%v cached=%v, want false/true", mode.sem, firstShared, cached)
		}
		if string(first) != string(second) {
			t.Errorf("%s query→topk communities differ:\ndsl  %s\ntopk %s", mode.sem, first, second)
		}
		if got := execs.Load() - before; got != 1 {
			t.Errorf("%s query→topk executed %d times, want 1", mode.sem, got)
		}
	}
}

// TestCSEReloadedDatasetStartsFresh: unloading a dataset drops its memo,
// so a different graph loaded under the same name never answers from the
// old graph's results.
func TestCSEReloadedDatasetStartsFresh(t *testing.T) {
	s, err := New(rankGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	ref := newTestServer(t) // serves testGraph, the replacement graph

	const params = "/v1/topk?k=3&gamma=2"
	get := func(url string) topKResponse {
		var resp topKResponse
		if code := getJSON(t, url, &resp); code != http.StatusOK {
			t.Fatalf("%s: status %d", url, code)
		}
		return resp
	}
	if err := s.AddDataset("swap", DatasetConfig{Graph: rankGraph(t)}); err != nil {
		t.Fatal(err)
	}
	old := get(ts.URL + params + "&dataset=swap")
	if again := get(ts.URL + params + "&dataset=swap"); !again.Cached {
		t.Fatal("repeat on the first graph not shared; the test would prove nothing")
	}
	if err := s.RemoveDataset("swap"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddDataset("swap", DatasetConfig{Graph: testGraph(t)}); err != nil {
		t.Fatal(err)
	}

	got := get(ts.URL + params + "&dataset=swap")
	if got.Cached {
		t.Error("first query on the reloaded dataset reported cached")
	}
	want := get(ref.URL + params)
	gotJSON, _ := json.Marshal(got.Communities)
	wantJSON, _ := json.Marshal(want.Communities)
	oldJSON, _ := json.Marshal(old.Communities)
	if string(gotJSON) != string(wantJSON) {
		t.Errorf("reloaded dataset answers\n%s\nwant the new graph's\n%s", gotJSON, wantJSON)
	}
	if string(oldJSON) == string(wantJSON) {
		t.Error("both graphs give the same answer; the test would prove nothing")
	}
}

// TestCSEZeroMemoKeepsNoResults: WithResultCache(0) keeps no memo, so a
// repeated query executes again on both surfaces and nothing is retained.
func TestCSEZeroMemoKeepsNoResults(t *testing.T) {
	ts := newTestServer(t, WithResultCache(0))
	for i := 0; i < 2; i++ {
		var resp topKResponse
		if code := getJSON(t, ts.URL+"/v1/topk?k=2&gamma=2", &resp); code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		if resp.Cached {
			t.Errorf("request %d served cached with the memo off", i)
		}
		code, raw := postQuery(t, ts, `{"query":"topk(k=2, gamma=2)"}`)
		if code != http.StatusOK {
			t.Fatalf("query status %d: %s", code, raw)
		}
		var qr rawQueryResponse
		if err := json.Unmarshal(raw, &qr); err != nil {
			t.Fatal(err)
		}
		if qr.CSEHits != 0 {
			t.Errorf("batch %d reports %d cse_hits with the memo off", i, qr.CSEHits)
		}
	}
	var st statsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if st.CacheEntries != 0 || st.CacheCapacity != 0 {
		t.Errorf("cache entries=%d capacity=%d, want 0/0", st.CacheEntries, st.CacheCapacity)
	}
	if st.CacheHits != 0 || st.CacheMisses != 2 {
		t.Errorf("cache hits=%d misses=%d, want 0/2", st.CacheHits, st.CacheMisses)
	}
}
