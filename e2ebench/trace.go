package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Times are nanoseconds
// since the tracer's epoch; Parent is 0 for a root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory for the traced run. A nil *tracer is
// the untraced run: every method is a no-op, so the timed code paths
// are the same in both runs apart from these calls.
type tracer struct {
	epoch time.Time
	op    atomic.Int64

	mu    sync.Mutex
	spans []span
}

// newTracer starts a tracer off the clock: spans carry op -1 until the
// timed phase sets the first op id, and per-layer metrics skip them.
func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.op.Store(-1)
	return t
}

// setOp stamps the client op id onto spans ended from now on; -1 marks
// work off the clock.
func (t *tracer) setOp(op int) {
	if t != nil {
		t.op.Store(int64(op))
	}
}

// begin returns the start stamp of a span.
func (t *tracer) begin() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// end records the span name that started at start.
func (t *tracer) end(name string, start int64) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	op := t.op.Load()
	t.mu.Lock()
	t.spans = append(t.spans, span{Op: op, Name: name, Start: start, End: now})
	t.mu.Unlock()
}

// finish assigns ids and parents and returns the spans in start order.
// With one client call in flight at a time, a span's parent is the
// innermost span that contains it in time.
func (t *tracer) finish() []span {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(spans, func(a, b int) bool {
		if spans[a].Start != spans[b].Start {
			return spans[a].Start < spans[b].Start
		}
		return spans[a].End > spans[b].End
	})
	var stack []int
	for i := range spans {
		spans[i].ID = i + 1
		for len(stack) > 0 {
			top := &spans[stack[len(stack)-1]]
			if top.Start <= spans[i].Start && spans[i].End <= top.End {
				break
			}
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			spans[i].Parent = spans[stack[len(stack)-1]].ID
		}
		stack = append(stack, i)
	}
	return spans
}

// spanIndex answers self-time and per-name queries over finished spans.
type spanIndex struct {
	spans    []span
	children map[int][]int // parent id -> child indexes, in start order
}

func indexSpans(spans []span) *spanIndex {
	ix := &spanIndex{spans: spans, children: map[int][]int{}}
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			ix.children[p] = append(ix.children[p], i)
		}
	}
	return ix
}

// childMs splits the time a span's direct children cover by the layer
// each child belongs to (the span name up to its first dot); the
// children of one span never overlap because they run one after
// another on the caller's goroutine.
func (ix *spanIndex) childMs(s *span) map[string]float64 {
	out := map[string]float64{}
	for _, ci := range ix.children[s.ID] {
		c := &ix.spans[ci]
		out[layerOf(c.Name)] += c.ms()
	}
	return out
}

// selfMs is a span's duration minus the time its direct children cover.
func (ix *spanIndex) selfMs(s *span) float64 {
	self := s.ms()
	for _, ms := range ix.childMs(s) {
		self -= ms
	}
	return self
}

// named returns the timed-phase spans called name.
func (ix *spanIndex) named(name string) []*span {
	var out []*span
	for i := range ix.spans {
		if ix.spans[i].Op >= 0 && ix.spans[i].Name == name {
			out = append(out, &ix.spans[i])
		}
	}
	return out
}

// withPrefix returns the timed-phase spans whose names start with
// prefix.
func (ix *spanIndex) withPrefix(prefix string) []*span {
	var out []*span
	for i := range ix.spans {
		if ix.spans[i].Op >= 0 && strings.HasPrefix(ix.spans[i].Name, prefix) {
			out = append(out, &ix.spans[i])
		}
	}
	return out
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

func durations(spans []*span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = s.ms()
	}
	return out
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// coopdRoute names a coopd request for its span: the API operation,
// with registrations and deregistrations as writes.
func coopdRoute(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/v1/register":
		return "write.register"
	case strings.HasPrefix(p, "/v1/apps/") && r.Method == http.MethodDelete:
		return "write.deregister"
	case p == "/v1/allocations":
		return "read.allocations"
	case p == "/v1/apps":
		return "read.apps"
	case p == "/v1/machine":
		return "read.machine"
	}
	return "other" + strings.ReplaceAll(p, "/", ".")
}

// traceHandler wraps a server handler with a span per request named
// prefix + route(request).
func traceHandler(t *tracer, prefix string, route func(*http.Request) string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := t.begin()
		h.ServeHTTP(w, r)
		t.end(prefix+route(r), start)
	})
}

// traceTransport records a client-side span per coopd request, from
// sending it until the caller closes the response body.
type traceTransport struct {
	t    *tracer
	base http.RoundTripper
}

func (tt *traceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := tt.t.begin()
	name := "coopd.client." + coopdRoute(req)
	resp, err := tt.base.RoundTrip(req)
	if err != nil {
		tt.t.end(name, start)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() { tt.t.end(name, start) }}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// wrapTransport adds client-side coopd spans to base when tracing.
func wrapTransport(t *tracer, base http.RoundTripper) http.RoundTripper {
	if t == nil {
		return base
	}
	return &traceTransport{t: t, base: base}
}
