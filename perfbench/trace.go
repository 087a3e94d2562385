package main

import (
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Spans of one operation
// share req; parent is the id of the span that caused this one (0 for a
// root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span; the returned token is passed to end.
func (t *tracer) begin(name string, req, parent int64) span {
	if t == nil {
		return span{}
	}
	return span{ID: t.nextID.Add(1), Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.t0))}
}

// end closes s and stores it.
func (t *tracer) end(s span) span {
	if t == nil {
		return s
	}
	s.End = int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// timed runs fn inside a span and returns the span.
func (t *tracer) timed(name string, req, parent int64, fn func()) span {
	s := t.begin(name, req, parent)
	fn()
	return t.end(s)
}

// children returns the finished spans whose parent is id.
func (t *tracer) children(id int64) []span {
	var out []span
	for _, s := range t.snapshot() {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerStats aggregates the finished spans per name: count, total duration,
// and self time (duration minus the part of it the span's children cover).
type layerStats struct {
	n          int
	total, own time.Duration
}

func (t *tracer) layers() map[string]*layerStats {
	spans := t.snapshot()
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]*layerStats)
	for _, s := range spans {
		ls := out[s.Name]
		if ls == nil {
			ls = &layerStats{}
			out[s.Name] = ls
		}
		ls.n++
		ls.total += s.dur()
		ls.own += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, end int64 = 0, -1 << 62
	for _, v := range ivs {
		if v.a > end {
			sum += v.b - v.a
			end = v.b
		} else if v.b > end {
			sum += v.b - end
			end = v.b
		}
	}
	return time.Duration(sum)
}

// meanMS is a layer's mean span duration in milliseconds (0 if absent).
func meanMS(ls map[string]*layerStats, name string) float64 {
	if s := ls[name]; s != nil && s.n > 0 {
		return float64(s.total) / float64(s.n) / 1e6
	}
	return 0
}

// selfMS is a layer's mean self time in milliseconds (0 if absent).
func selfMS(ls map[string]*layerStats, name string) float64 {
	if s := ls[name]; s != nil && s.n > 0 {
		return float64(s.own) / float64(s.n) / 1e6
	}
	return 0
}

// totalS is a layer's summed span time in seconds (0 if absent).
func totalS(ls map[string]*layerStats, name string) float64 {
	if s := ls[name]; s != nil {
		return s.total.Seconds()
	}
	return 0
}

// envRecord describes the machine and toolchain a result came from.
func envRecord() map[string]any {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpu,
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
}
