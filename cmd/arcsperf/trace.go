package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"arcs/internal/store"
)

// The traced run measures layers only from outside the program: it wraps
// the seams arcsd already exposes (the HTTP transports of clients and
// peers, each node's http.Handler, the store's filesystem, the server's
// Searcher) and records one span per crossing. Spans stay in memory and
// are written when the run ends.

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the tracer was created. A root span has Parent 0 and
// its own ID as Trace.
type span struct {
	Name   string `json:"name"`
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

// spanRef identifies a span across a hop.
type spanRef struct{ trace, id uint64 }

// liveSpan is a span that has begun and not yet ended.
type liveSpan struct {
	name   string
	ref    spanRef
	parent uint64
	start  int64
}

// tracer collects spans while it is on. A nil *tracer and a tracer that
// is off both make every wrapper a pass-through.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span under parent (nil for a root); it returns nil, which
// end ignores, while the tracer is off.
func (t *tracer) begin(name string, parent *spanRef) *liveSpan {
	if !t.enabled() {
		return nil
	}
	s := &liveSpan{name: name, start: t.now()}
	s.ref.id = t.ids.Add(1)
	if parent != nil {
		s.ref.trace, s.parent = parent.trace, parent.id
	} else {
		s.ref.trace = s.ref.id
	}
	return s
}

// end closes s, recording how many bytes crossed the boundary.
func (t *tracer) end(s *liveSpan, bytes int64) {
	if s == nil {
		return
	}
	sp := span{Name: s.name, Trace: s.ref.trace, ID: s.ref.id, Parent: s.parent, Start: s.start, End: t.now(), Bytes: bytes}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// take returns the spans recorded so far and forgets them.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

type spanKey struct{}

func withSpan(ctx context.Context, s *liveSpan) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s.ref)
}

func spanFrom(ctx context.Context) *spanRef {
	if ref, ok := ctx.Value(spanKey{}).(spanRef); ok {
		return &ref
	}
	return nil
}

func refOf(s *liveSpan) *spanRef {
	if s == nil {
		return nil
	}
	return &s.ref
}

// spanHeader carries the calling span across an HTTP hop. arcsd ignores
// headers it does not know.
const spanHeader = "X-Arcsperf-Span"

func parseRef(v string) *spanRef {
	tr, id, ok := strings.Cut(v, ":")
	if !ok {
		return nil
	}
	t, err1 := strconv.ParseUint(tr, 10, 64)
	i, err2 := strconv.ParseUint(id, 10, 64)
	if err1 != nil || err2 != nil {
		return nil
	}
	return &spanRef{trace: t, id: i}
}

// transport wraps an http.RoundTripper: each round trip becomes a span
// (named name) under the span in the request's context, ending when the
// response body is closed, and the span travels to the server in
// spanHeader.
type transport struct {
	base http.RoundTripper
	t    *tracer
	name string
}

func (rt *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	s := rt.t.begin(rt.name, spanFrom(req.Context()))
	if s == nil {
		return rt.base.RoundTrip(req)
	}
	sent := req.ContentLength
	if sent < 0 {
		sent = 0
	}
	req = req.Clone(req.Context()) // a RoundTripper must not modify its argument
	req.Header.Set(spanHeader, fmt.Sprintf("%d:%d", s.ref.trace, s.ref.id))
	resp, err := rt.base.RoundTrip(req)
	if err != nil {
		rt.t.end(s, sent)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, t: rt.t, s: s, n: sent}
	return resp, nil
}

// spanBody ends its round-trip span when the caller closes the body.
type spanBody struct {
	io.ReadCloser
	t    *tracer
	s    *liveSpan
	n    int64
	once sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.t.end(b.s, b.n) })
	return err
}

// serverSpanNames maps arcsd endpoints to span names without allocating
// per request.
var serverSpanNames = map[string]string{}

func serverSpanName(path string) string {
	if n, ok := serverSpanNames[path]; ok {
		return n
	}
	return "server.other"
}

func init() {
	for _, ep := range []string{"config", "neighbors", "report", "reports", "dump", "digest", "merge", "ping", "membership", "join", "leave", "transfer"} {
		serverSpanNames["/v1/"+ep] = "server." + ep
	}
	serverSpanNames["/healthz"] = "server.healthz"
}

// handler wraps one node's http.Handler: each request becomes a span
// under the caller's span, stored in the request context, which the
// server already hands to its peer calls and searches.
func (t *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s := t.begin(serverSpanName(r.URL.Path), parseRef(r.Header.Get(spanHeader)))
		if s == nil {
			h.ServeHTTP(w, r)
			return
		}
		h.ServeHTTP(w, r.WithContext(withSpan(r.Context(), s)))
		t.end(s, 0)
	})
}

// traceFS wraps a store's filesystem. Its calls carry no context, so each
// write, fsync and rename is a root span of its own, named by what the
// file is: the WAL or a snapshot being written.
type traceFS struct {
	store.FS
	t *tracer
}

func (f traceFS) OpenFile(name string, flag int, perm os.FileMode) (store.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	kind := "store.snapshot_write"
	if filepath.Base(name) == store.WALName {
		kind = "store.wal_write"
	}
	return traceFile{File: file, t: f.t, kind: kind}, nil
}

func (f traceFS) Rename(oldpath, newpath string) error {
	s := f.t.begin("store.rename", nil)
	err := f.FS.Rename(oldpath, newpath)
	f.t.end(s, 0)
	return err
}

type traceFile struct {
	store.File
	t    *tracer
	kind string
}

func (f traceFile) Write(p []byte) (int, error) {
	s := f.t.begin(f.kind, nil)
	n, err := f.File.Write(p)
	f.t.end(s, int64(n))
	return n, err
}

func (f traceFile) Sync() error {
	s := f.t.begin("store.fsync", nil)
	err := f.File.Sync()
	f.t.end(s, 0)
	return err
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover (children that overlap each other count once).
func selfTimes(spans []span) map[uint64]int64 {
	kids := make(map[uint64][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make(map[uint64]int64, len(spans))
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, s := range spans {
		ivs = ivs[:0]
		for _, k := range kids[s.ID] {
			c := spans[k]
			a, b := max(c.Start, s.Start), min(c.End, s.End)
			if a < b {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		covered, end := int64(0), int64(-1<<63)
		for _, v := range ivs {
			if v.a > end {
				covered += v.b - v.a
				end = v.b
			} else if v.b > end {
				covered += v.b - end
				end = v.b
			}
		}
		out[s.ID] = s.End - s.Start - covered
	}
	return out
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
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
