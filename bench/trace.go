package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one call into a layer, as the traced run records it from the
// benchmark's side of the layer's exported boundary. Spans are kept in
// memory and written out when the run ends.
type span struct {
	ID       int32  `json:"id"`
	Parent   int32  `json:"parent"` // 0: none
	Workload string `json:"workload"`
	// Phase is the part of the run the call belongs to: "setup", "run" (the
	// re-composed timed region) or "probe" (a single layer measured alone).
	Phase string `json:"phase"`
	// Layer is the package the call goes into; Op names the call.
	Layer string `json:"layer"`
	Op    string `json:"op"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	// Count and Bytes are the work the call did (items, payload bytes). A
	// zero-length span with a Count is a counter read from the layer.
	Count int64 `json:"count"`
	Bytes int64 `json:"bytes"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer collects spans from any goroutine. A nil tracer records nothing,
// which is what set-up code shared with untraced runs is handed.
type tracer struct {
	workload string
	t0       time.Time
	mu       sync.Mutex
	phase    string
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now(), phase: "setup"}
}

// setPhase stamps the spans opened from now on.
func (t *tracer) setPhase(phase string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.phase = phase
	t.mu.Unlock()
}

// add appends a span under the lock and returns its id.
func (t *tracer) add(s span) int32 {
	t.mu.Lock()
	s.ID, s.Workload, s.Phase = int32(len(t.spans)+1), t.workload, t.phase
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.ID
}

// start opens a span and returns its id.
func (t *tracer) start(parent int32, layer, op string) int32 {
	if t == nil {
		return 0
	}
	return t.add(span{Parent: parent, Layer: layer, Op: op, Start: int64(time.Since(t.t0))})
}

// end closes a span with the work it did.
func (t *tracer) end(id int32, count, bytes int64) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	s := &t.spans[id-1]
	s.End, s.Count, s.Bytes = now, count, bytes
	t.mu.Unlock()
}

// call runs fn inside a span.
func (t *tracer) call(parent int32, layer, op string, count, bytes int64, fn func()) {
	id := t.start(parent, layer, op)
	fn()
	t.end(id, count, bytes)
}

// counter records a value a layer counted itself.
func (t *tracer) counter(parent int32, layer, op string, count, bytes int64) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.add(span{Parent: parent, Layer: layer, Op: op, Start: now, End: now, Count: count, Bytes: bytes})
}

// batch accumulates calls too short for a span each (a store write or a
// collector fold is under a microsecond): the calls of one week become one
// span whose length is the time spent inside them.
type batch struct {
	layer, op   string
	first       time.Time
	busy        time.Duration
	count, size int64
}

// time runs fn as one call of the batch.
func (b *batch) time(fn func()) {
	t := time.Now()
	if b.count == 0 {
		b.first = t
	}
	fn()
	b.busy += time.Since(t)
	b.count++
}

// flushChain writes batches whose calls interleaved on one goroutine as
// consecutive spans, laid end to end from the first call, and resets them:
// laid over each other they would hide one another from a parent's self
// time.
func flushChain(t *tracer, parent int32, batches ...*batch) {
	if t == nil {
		return
	}
	var at time.Time
	for _, b := range batches {
		if b.count > 0 && (at.IsZero() || b.first.Before(at)) {
			at = b.first
		}
	}
	for _, b := range batches {
		if b.count > 0 {
			start := int64(at.Sub(t.t0))
			t.add(span{Parent: parent, Layer: b.layer, Op: b.op,
				Start: start, End: start + int64(b.busy), Count: b.count, Bytes: b.size})
			at = at.Add(b.busy)
		}
		*b = batch{layer: b.layer, op: b.op}
	}
}

// spanKey carries the enclosing span through a context, so a transport
// wrapper can parent an exchange to the fetch that caused it.
type spanKey struct{}

func withSpan(ctx context.Context, id int32) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

func spanOf(ctx context.Context) int32 {
	id, _ := ctx.Value(spanKey{}).(int32)
	return id
}

// tracedTransport records one span per exchange: from RoundTrip until the
// response body is closed, which is when the crawler has the bytes.
type tracedTransport struct {
	inner     http.RoundTripper
	tr        *tracer
	layer, op string
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := t.tr.start(spanOf(req.Context()), t.layer, t.op)
	// The exchanges below this one (a recorder's inner transport) are its
	// children.
	resp, err := t.inner.RoundTrip(req.WithContext(withSpan(req.Context(), id)))
	if err != nil {
		t.tr.end(id, 1, 0)
		return nil, err
	}
	resp.Body = &tracedBody{ReadCloser: resp.Body, tr: t.tr, id: id}
	return resp, nil
}

type tracedBody struct {
	io.ReadCloser
	tr   *tracer
	id   int32
	n    int64
	once sync.Once
}

func (b *tracedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *tracedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.tr.end(b.id, 1, b.n) })
	return err
}

// tracedHandler records one span per request served.
type tracedHandler struct {
	inner     http.Handler
	tr        *tracer
	layer, op string
	// classify, when set, renames the span after the handler returned
	// (serve-audit: cache hit or miss, read from the X-Cache header).
	classify func(http.Header) string
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// Hijack keeps http.Hijacker visible through the wrapper: the synthetic web
// answers a dead host by hijacking and resetting the connection, and would
// answer 502 (another observation, another report) if it could not.
func (w *countingWriter) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	hj, ok := w.ResponseWriter.(http.Hijacker)
	if !ok {
		return nil, nil, errors.New("bench: response writer cannot hijack")
	}
	return hj.Hijack()
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := h.tr.start(0, h.layer, h.op)
	cw := &countingWriter{ResponseWriter: w}
	h.inner.ServeHTTP(cw, r)
	if h.classify != nil {
		op := h.classify(w.Header())
		h.tr.mu.Lock()
		h.tr.spans[id-1].Op = op
		h.tr.mu.Unlock()
	}
	h.tr.end(id, 1, cw.n)
}

// writeSpans writes spans as JSON lines.
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

// readSpans reads a trace file back, grouped by workload in file order.
func readSpans(path string) (map[string][]span, []string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	byWorkload := make(map[string][]span)
	var order []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		if _, ok := byWorkload[s.Workload]; !ok {
			order = append(order, s.Workload)
		}
		byWorkload[s.Workload] = append(byWorkload[s.Workload], s)
	}
	return byWorkload, order, sc.Err()
}

// traceIndex answers the summariser's questions about one workload's spans.
type traceIndex struct {
	spans    []span
	byName   map[string][]int // "layer/op" -> indices
	children map[int32][]int
}

func indexSpans(spans []span) *traceIndex {
	ix := &traceIndex{spans: spans, byName: make(map[string][]int), children: make(map[int32][]int)}
	for i, s := range spans {
		ix.byName[s.Layer+"/"+s.Op] = append(ix.byName[s.Layer+"/"+s.Op], i)
		if s.Parent != 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], i)
		}
	}
	return ix
}

// agg is the totals of the spans of one name.
type agg struct {
	n            int
	dur          time.Duration
	count, bytes int64
	durs         []float64 // ms, one per span
}

func (ix *traceIndex) agg(name string) agg {
	var a agg
	for _, i := range ix.byName[name] {
		s := ix.spans[i]
		a.n++
		a.dur += s.dur()
		a.count += s.Count
		a.bytes += s.Bytes
		a.durs = append(a.durs, ms(s.dur()))
	}
	return a
}

// unionLen is the length of the union of the given spans' intervals,
// clipped to [from, to).
func (ix *traceIndex) unionLen(idx []int, from, to int64) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(idx))
	for _, i := range idx {
		k := ix.spans[i]
		a, b := max(k.Start, from), min(k.End, to)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total int64
	end := from
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		total += v.b - max(v.a, end)
		end = v.b
	}
	return time.Duration(total)
}

// self is the summed self time of the spans of one name: each span's
// length minus the part of it its child spans cover.
func (ix *traceIndex) self(name string) time.Duration {
	var d time.Duration
	for _, i := range ix.byName[name] {
		s := ix.spans[i]
		d += s.dur() - ix.unionLen(ix.children[s.ID], s.Start, s.End)
	}
	return d
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
