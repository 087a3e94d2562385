package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// op is one client request of a workload's fixed sequence.
type op struct {
	method, path string
	body         []byte
	// q is the query of a /v1/topk op; answers to equal queries must be
	// equal.
	q qkey
}

// sample is one completed request of a load phase.
type sample struct {
	op         int
	start, end time.Duration // from the opening of the measured window
	status     int
	err        error
	bytes      int
	digest     uint64 // hash of the part of the body the answer check compares
	body       []byte // kept only when the workload asks for it
}

func (s sample) ok() bool { return s.err == nil && s.status == http.StatusOK }

// measured reports whether s lies inside a measured window of length dur.
func (s sample) measured(dur time.Duration) bool { return s.start >= 0 && s.end <= dur }

// loadPhase describes one closed-loop load phase.
type loadPhase struct {
	base    string
	opAt    func(i int) op // the fixed seeded sequence, computed on demand
	clients int
	dur     time.Duration
	// extract returns the part of a response body the answer check
	// compares; nil keeps whole bodies.
	extract func(body []byte) []byte
	tr      *tracer
}

var hashSeed = maphash.MakeSeed()

func digest(b []byte) uint64 { return maphash.Bytes(hashSeed, b) }

// reqHeader and spanHeader carry the operation id and the client span id
// to the benchmark's server-side wrapper, which parents its span there.
const (
	reqHeader  = "X-Bench-Req"
	spanHeader = "X-Bench-Span"
)

// clientCount is how many closed-loop clients a workload runs: at most
// the machine's core count.
func clientCount(want int) int { return max(1, min(want, runtime.NumCPU())) }

// newClient returns an HTTP client that holds exactly one keep-alive
// connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
}

// warmup is how long a phase runs before its measured window opens, so
// that connections, caches and the garbage collector's pacing have
// settled.
const warmup = 2 * time.Second

// run drives the phase: each client takes the next op of the shared
// sequence as soon as its previous one completed, for the warm-up and then
// dur. Sample times are relative to the end of the warm-up. Requests in
// flight at the deadline complete and are returned (and checked), but only
// those inside the measured window count towards throughput and latency.
func (p *loadPhase) run() []sample {
	var cursor atomic.Int64
	var mu sync.Mutex
	var out []sample
	var wg sync.WaitGroup
	start := time.Now()
	window := start.Add(warmup)
	for c := 0; c < p.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			var local []sample
			var buf bytes.Buffer
			for time.Since(window) < p.dur {
				i := int(cursor.Add(1) - 1)
				s := doOp(client, &buf, p.base, p.opAt(i), int64(i)+1, p.tr, p.extract, window)
				s.op = i
				local = append(local, s)
			}
			mu.Lock()
			out = append(out, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	sort.Slice(out, func(i, j int) bool { return out[i].op < out[j].op })
	return out
}

// doOp sends one request and reads the whole response into buf, which a
// client reuses so that the benchmark adds little garbage of its own; its
// times are offsets from phaseStart.
func doOp(client *http.Client, buf *bytes.Buffer, base string, o op, req int64, tr *tracer, extract func([]byte) []byte, phaseStart time.Time) sample {
	var s sample
	sp := tr.begin("http", req, 0)
	t0 := time.Now()
	s.status, s.err = roundTrip(client, buf, base, o, req, sp.ID, tr != nil)
	t1 := time.Now()
	tr.end(sp)
	s.start, s.end, s.bytes = t0.Sub(phaseStart), t1.Sub(phaseStart), buf.Len()
	if s.ok() {
		if extract != nil {
			s.digest = digest(extract(buf.Bytes()))
		} else {
			s.body = bytes.Clone(buf.Bytes())
		}
	}
	return s
}

// roundTrip sends o and reads the response body into buf. When traced, the
// request carries the operation and span ids for the server-side wrapper.
func roundTrip(client *http.Client, buf *bytes.Buffer, base string, o op, req, spanID int64, traced bool) (int, error) {
	buf.Reset()
	var body io.Reader
	if o.body != nil {
		body = bytes.NewReader(o.body)
	}
	hreq, err := http.NewRequest(o.method, base+o.path, body)
	if err != nil {
		return 0, err
	}
	if o.body != nil {
		hreq.Header.Set("Content-Type", "application/json")
	}
	if traced {
		hreq.Header.Set(reqHeader, strconv.FormatInt(req, 10))
		hreq.Header.Set(spanHeader, strconv.FormatInt(spanID, 10))
	}
	resp, err := client.Do(hreq)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// traced wraps a handler so that, in traced runs, each request carrying
// the benchmark's headers is recorded as a child span of the client's.
func traced(h http.Handler, tr *tracer, name string) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		if parent == 0 {
			h.ServeHTTP(w, r)
			return
		}
		sp := tr.begin(name, req, parent)
		h.ServeHTTP(w, r)
		tr.end(sp)
	})
}

// httpServer is one in-process server on a loopback port.
type httpServer struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func serve(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns ErrServerClosed after close
	}()
	return s, nil
}

// close stops the server and waits until its accept loop has returned.
func (s *httpServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		_ = s.srv.Close() // a hung handler must not keep the run alive
	}
	<-s.done
}

// get issues one request outside the measured phase and returns the body
// of a 200 response.
func get(client *http.Client, method, url string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// between returns the bytes of body between the first occurrence of from
// and the next occurrence of to, which is how a check picks the
// communities array out of a response without decoding all of it.
func between(body []byte, from, to string) []byte {
	i := bytes.Index(body, []byte(from))
	if i < 0 {
		return nil
	}
	rest := body[i+len(from):]
	j := bytes.Index(rest, []byte(to))
	if j < 0 {
		return nil
	}
	return rest[:j]
}

// pct is the nearest-rank percentile p (0-100) of sorted values.
func pct(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// statWindow is the length of the slices of a measured phase whose
// medians local-mixed reports. The host's speed drifts from one second to
// the next; a median over slices keeps a slow stretch in part of a run
// from moving the run's figures. The local-mixed sequence repeats its mix
// in blocks far shorter than a slice, so each slice carries the same load.
const statWindow = 5 * time.Second

// statSlices is how many statWindow slices a measured phase of dur holds.
func statSlices(dur time.Duration) int { return max(1, int(dur/statWindow)) }

// setE2E stores the closed-loop end-to-end metrics of a phase cut into n
// equal slices: the medians over the slices of each slice's throughput,
// median latency and tail latency. A request belongs to the slice in which
// it ended; a slice's throughput is its requests over the time from its
// start to its last completion; failed requests count as infinitely slow.
// tailPct is the workload's fixed tail percentile.
func (b *bench) setE2E(samples []sample, tailPct float64, n int) {
	width := b.dur / time.Duration(n)
	type slice struct {
		ms   []float64
		last time.Duration
	}
	slices := make([]slice, n)
	done := 0
	for _, s := range samples {
		if !s.measured(b.dur) {
			continue
		}
		done++
		v := math.Inf(1)
		if s.ok() {
			v = float64(s.end-s.start) / 1e6
		}
		sl := &slices[min(int(s.end/width), n-1)]
		sl.ms = append(sl.ms, v)
		sl.last = max(sl.last, s.end)
	}
	var qps, p50, tail []float64
	for w, sl := range slices {
		if len(sl.ms) == 0 {
			qps = append(qps, 0)
			continue
		}
		qps = append(qps, float64(len(sl.ms))/(sl.last-time.Duration(w)*width).Seconds())
		sort.Float64s(sl.ms)
		p50 = append(p50, pct(sl.ms, 50))
		tail = append(tail, pct(sl.ms, tailPct))
	}
	b.set("qps", median(qps))
	b.set("latency_p50_ms", median(p50))
	b.set("latency_tail_ms", median(tail))
	b.env["latency_samples"] = done
	b.env["latency_tail_pct"] = tailPct
	b.env["stat_slices"] = n
	b.count(samples)
}

// count adds a phase's requests to the attempted and failed operations.
func (b *bench) count(samples []sample) {
	b.attempted += int64(len(samples))
	for _, s := range samples {
		if !s.ok() {
			b.fail(1, false)
		}
	}
}

// setHTTPLayer stores the HTTP per-layer metrics of a traced phase.
func (b *bench) setHTTPLayer(samples []sample) {
	b.set("http.self_ms", selfMS(b.tr.layers(), "http"))
	var bytesSum, n int
	for _, s := range samples {
		if s.ok() && s.measured(b.dur) {
			bytesSum += s.bytes
			n++
		}
	}
	if n > 0 {
		b.set("http.response_bytes", float64(bytesSum)/float64(n))
	}
}

// overheadProbe sends n ops of a sequence twice each to a server that does
// the same work for equal requests, once traced and once not, alternating
// which goes first. It reports the median over ops of the traced time's
// excess over the untraced one, in percent.
func (b *bench) overheadProbe(base string, opAt func(int) op, n int) error {
	client := newClient()
	defer client.CloseIdleConnections()
	excess := make([]float64, 0, n)
	var buf bytes.Buffer
	t0 := time.Now()
	for i := 0; i < n; i++ {
		o := opAt(i)
		var plain, withTrace time.Duration
		for pass := 0; pass < 2; pass++ {
			tr := b.tr
			if (i+pass)%2 == 0 {
				tr = nil
			}
			s := doOp(client, &buf, base, o, int64(1<<50+i), tr, nil, t0)
			if !s.ok() {
				return fmt.Errorf("overhead probe %s: status %d: %v", o.path, s.status, s.err)
			}
			if tr == nil {
				plain = s.end - s.start
			} else {
				withTrace = s.end - s.start
			}
		}
		excess = append(excess, float64(withTrace-plain)/float64(plain)*100)
	}
	b.set("trace.overhead_pct", median(excess))
	return nil
}

// median of v (0 when empty).
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// setupRuns is how many times a run sets its workload up; setup_s is the
// median, and the last set-up serves the measured phase.
const setupRuns = 5

// repeatSetup runs setup setupRuns times, tearing down all but the last,
// and records setup_s and heap_mb.
func (b *bench) repeatSetup(setup func() error, teardown func()) error {
	var times []float64
	for i := 0; i < setupRuns; i++ {
		if i > 0 {
			teardown()
		}
		t0 := time.Now()
		if err := setup(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	b.set("setup_s", median(times))
	b.env["setup_s_runs"] = times
	runtime.GC()
	runtime.GC() // the second cycle also frees what sync.Pool victim caches held
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.set("heap_mb", float64(ms.HeapAlloc)/1e6)
	return nil
}
