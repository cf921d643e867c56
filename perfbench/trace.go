package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the public function it is named after. Parent is derived
// when the trace is written: with one closed-loop client and one compute
// slot, the spans of a session nest in time, so a span's parent is the
// innermost span of the same session that encloses it.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Session int    `json:"session"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	self    int64
}

func (s *span) dur() int64 { return s.EndNS - s.StartNS }

// tracer keeps the spans and work counts of the traced ops in memory.
// Spans arrive from the client, the HTTP servers and the coordinator's
// dispatch goroutines, so every method locks. A nil tracer records
// nothing, and so does one between traced ops.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	on      bool
	session int
	spans   []span
	counts  map[int]map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[int]map[string]float64{}}
}

// record switches recording on for op session, or off when on is false.
func (t *tracer) record(session int, on bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.session, t.on = session, on
	if on && t.counts[session] == nil {
		t.counts[session] = map[string]float64{}
	}
	t.mu.Unlock()
}

// recording reports whether the current op is being traced.
func (t *tracer) recording() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.on
}

// begin opens a span and returns its handle (0 when not recording).
func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Session: t.session, Name: name,
		StartNS: time.Since(t.t0).Nanoseconds()})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].EndNS = time.Since(t.t0).Nanoseconds()
	t.mu.Unlock()
}

// count adds v to a work counter of the op being recorded.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.on {
		t.counts[t.session][name] += v
	}
	t.mu.Unlock()
}

// link derives parents and self times: a span's self time is its
// duration minus the time its children cover.
func (t *tracer) link() {
	order := make([]*span, len(t.spans))
	for i := range t.spans {
		order[i] = &t.spans[i]
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if a.Session != b.Session {
			return a.Session < b.Session
		}
		if a.StartNS != b.StartNS {
			return a.StartNS < b.StartNS
		}
		return a.EndNS > b.EndNS
	})
	var stack []*span
	for _, s := range order {
		for len(stack) > 0 {
			top := stack[len(stack)-1]
			if top.Session == s.Session && s.StartNS >= top.StartNS && s.EndNS <= top.EndNS {
				break
			}
			stack = stack[:len(stack)-1]
		}
		s.Parent, s.self = 0, s.dur()
		if len(stack) > 0 {
			p := stack[len(stack)-1]
			s.Parent = p.ID
			p.self -= s.dur()
		}
		stack = append(stack, s)
	}
}

// sessions lists the traced op indices in order.
func (t *tracer) sessions() []int {
	out := make([]int, 0, len(t.counts))
	for s := range t.counts {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// perSession sums f over the spans named name in each traced op.
func (t *tracer) perSession(name string, f func(*span) int64) map[int]float64 {
	out := map[int]float64{}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name == name {
			out[s.Session] += float64(f(s)) / 1e6
		}
	}
	return out
}

// spanMS is the per-op time in spans named name: median over traced ops
// and the number of ops that made such a call.
func (t *tracer) spanMS(name string) (float64, int) {
	per := t.perSession(name, (*span).dur)
	var xs samples
	for _, v := range per {
		xs = append(xs, v)
	}
	if len(xs) == 0 {
		return 0, 0
	}
	return xs.median(), len(xs)
}

// selfTable renders per-layer self time per op (median over traced ops).
func (t *tracer) selfTable() string {
	names := map[string]bool{}
	for _, s := range t.spans {
		names[s.Name] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	out := fmt.Sprintf("  %-18s %12s %12s %6s\n", "span", "self ms/op", "total ms/op", "ops")
	for _, n := range sorted {
		self := t.perSession(n, func(s *span) int64 { return s.self })
		var xs samples
		for _, v := range self {
			xs = append(xs, v)
		}
		total, ops := t.spanMS(n)
		out += fmt.Sprintf("  %-18s %12.4f %12.4f %6d\n", n, xs.median(), total, ops)
	}
	return out
}

// write saves the spans as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// countingTransport counts the body bytes of each HTTP round trip and,
// when name is set, times it as a span; a request to countPath also
// counts as a dispatch, and a failed one as a retry the caller must make.
type countingTransport struct {
	base      http.RoundTripper
	tr        *tracer
	name      string
	countPath string
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := 0
	if c.name != "" {
		id = c.tr.begin(c.name)
	}
	if req.ContentLength > 0 {
		c.tr.count("wire_bytes", float64(req.ContentLength))
	}
	counted := req.URL.Path == c.countPath
	if counted {
		c.tr.count("dispatches", 1)
	}
	resp, err := c.base.RoundTrip(req)
	if err != nil || resp.StatusCode >= 300 {
		if counted {
			c.tr.count("retries", 1)
		}
	}
	if err != nil {
		c.tr.end(id)
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, tr: c.tr, id: id}
	return resp, nil
}

// countingBody counts response bytes and ends the round trip's span once
// the body has been read to its end (api.Client always reads it whole),
// or when the caller closes it first.
type countingBody struct {
	io.ReadCloser
	tr   *tracer
	id   int
	once sync.Once
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.tr.count("wire_bytes", float64(n))
	if err == io.EOF {
		b.once.Do(func() { b.tr.end(b.id) })
	}
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.tr.end(b.id) })
	return err
}

// tracedHandler is HTTP middleware that times every request h serves.
func tracedHandler(tr *tracer, name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := tr.begin(name)
		h.ServeHTTP(w, r)
		tr.end(id)
	})
}
