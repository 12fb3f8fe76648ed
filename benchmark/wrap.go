package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/gitcite/gitcite/internal/hosting"
	"github.com/gitcite/gitcite/internal/vcs/object"
	"github.com/gitcite/gitcite/internal/vcs/refs"
	"github.com/gitcite/gitcite/internal/vcs/store"
)

// The wrappers in this file are how the traced pass times layers from
// outside: each forwards to a public interface of the program and records one
// span per call. They are installed only for the traced pass; end-to-end
// numbers never run through them.

// timedStore records a span around every call into a store.Store. It
// implements every optional store interface (BatchStore, RawBatchStore,
// PrefixSearcher, Close) by forwarding through the store package's own
// dispatch helpers, so a caller that probes for a fast path finds the same one
// it would find on the bare store, and a bare store lacking it falls back
// exactly as it would have without the wrapper.
type timedStore struct {
	inner store.Store
	tr    *tracer
	// Span names, "<layer>.get" and so on, where layer is "store.cached"
	// (above the decoded-object cache) or "store.pack" (below it).
	nameGet, nameHas, namePut, namePrefix string

	gets       atomic.Int64 // Get calls
	putObjects atomic.Int64 // objects handed to Put, PutMany and PutManyEncoded
	rawBatches atomic.Int64 // PutManyEncoded calls
}

func newTimedStore(inner store.Store, tr *tracer, layer string) *timedStore {
	return &timedStore{inner: inner, tr: tr,
		nameGet: layer + ".get", nameHas: layer + ".has", namePut: layer + ".put", namePrefix: layer + ".prefix"}
}

func (s *timedStore) Put(o object.Object) (object.ID, error) {
	h := s.tr.start(s.namePut)
	id, err := s.inner.Put(o)
	s.tr.end(h)
	s.putObjects.Add(1)
	return id, err
}

func (s *timedStore) Get(id object.ID) (object.Object, error) {
	h := s.tr.start(s.nameGet)
	o, err := s.inner.Get(id)
	s.tr.end(h)
	s.gets.Add(1)
	return o, err
}

func (s *timedStore) Has(id object.ID) (bool, error) {
	h := s.tr.start(s.nameHas)
	ok, err := s.inner.Has(id)
	s.tr.end(h)
	return ok, err
}

// IDs forwards the full enumeration (untimed: no workload may reach it).
func (s *timedStore) IDs() ([]object.ID, error) { return s.inner.IDs() }

func (s *timedStore) Len() (int, error) { return s.inner.Len() }

func (s *timedStore) PutMany(objs []object.Object) ([]object.ID, error) {
	h := s.tr.start(s.namePut)
	ids, err := store.PutMany(s.inner, objs)
	s.tr.end(h)
	s.putObjects.Add(int64(len(objs)))
	return ids, err
}

func (s *timedStore) HasMany(ids []object.ID) ([]bool, error) {
	h := s.tr.start(s.nameHas)
	have, err := store.HasMany(s.inner, ids)
	s.tr.end(h)
	return have, err
}

func (s *timedStore) PutManyEncoded(batch []store.Encoded) error {
	h := s.tr.start(s.namePut)
	err := store.PutManyEncoded(s.inner, batch)
	s.tr.end(h)
	s.rawBatches.Add(1)
	s.putObjects.Add(int64(len(batch)))
	return err
}

func (s *timedStore) IDsByPrefix(prefix string, limit int) ([]object.ID, error) {
	h := s.tr.start(s.namePrefix)
	ids, err := store.IDsByPrefix(s.inner, prefix, limit)
	s.tr.end(h)
	return ids, err
}

func (s *timedStore) Close() error {
	if c, ok := s.inner.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}

var _ interface {
	store.Store
	store.BatchStore
	store.RawBatchStore
	store.PrefixSearcher
} = (*timedStore)(nil)

// timedRefs records a span around every call into a refs.Store.
type timedRefs struct {
	inner refs.Store
	tr    *tracer
}

func (r *timedRefs) Set(name string, id object.ID) error {
	h := r.tr.start("refs.set")
	err := r.inner.Set(name, id)
	r.tr.end(h)
	return err
}

func (r *timedRefs) Get(name string) (object.ID, error) {
	h := r.tr.start("refs.get")
	id, err := r.inner.Get(name)
	r.tr.end(h)
	return id, err
}

func (r *timedRefs) Delete(name string) error {
	h := r.tr.start("refs.set")
	err := r.inner.Delete(name)
	r.tr.end(h)
	return err
}

func (r *timedRefs) List() ([]string, error) {
	h := r.tr.start("refs.list")
	names, err := r.inner.List()
	r.tr.end(h)
	return names, err
}

func (r *timedRefs) SetHEAD(hd refs.HEAD) error {
	h := r.tr.start("refs.set")
	err := r.inner.SetHEAD(hd)
	r.tr.end(h)
	return err
}

func (r *timedRefs) GetHEAD() (refs.HEAD, error) {
	h := r.tr.start("refs.get")
	hd, err := r.inner.GetHEAD()
	r.tr.end(h)
	return hd, err
}

// routeKind names the hosting handler family a request lands in, from its
// method and /api/v1 path alone.
func routeKind(method, path string) string {
	rest, ok := strings.CutPrefix(path, "/api/v1/repos/")
	if !ok {
		return "other"
	}
	parts := strings.SplitN(rest, "/", 4) // owner, name, verb, tail
	if len(parts) < 3 {
		if method == http.MethodGet {
			return "meta"
		}
		return "other"
	}
	switch parts[2] {
	case "cite":
		if method == http.MethodGet {
			return "cite"
		}
		return "edit"
	case "chain", "citefile":
		return "cite"
	case "tree":
		return "tree"
	case "negotiate":
		return "negotiate"
	case "push":
		return "push"
	case "pull", "objects":
		return "pull"
	}
	return "other"
}

// statusRecorder captures the response status while staying transparent to
// handlers that stream (http.Flusher) or use http.ResponseController.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (w *statusRecorder) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusRecorder) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusRecorder) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusRecorder) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// serveSpan prefixes the span of one served request; the route kind follows.
const serveSpan = "hosting.serve."

// tracedHandler wraps the hosting server: one "hosting.serve.<kind>" span per
// request plus status-class counts.
type tracedHandler struct {
	inner http.Handler
	tr    *tracer

	status2xx, status304, statusErr atomic.Int64
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := &statusRecorder{ResponseWriter: w}
	sp := h.tr.start(serveSpan + routeKind(r.Method, r.URL.Path))
	h.inner.ServeHTTP(rec, r)
	h.tr.end(sp)
	switch {
	case rec.status == http.StatusNotModified:
		h.status304.Add(1)
	case rec.status == 0 || (rec.status >= 200 && rec.status < 300):
		h.status2xx.Add(1)
	default:
		h.statusErr.Add(1)
	}
}

// countingConn counts the bytes that cross one client connection, headers
// included — the wire as the kernel sees it.
type countingConn struct {
	net.Conn
	in, out *atomic.Int64
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.in.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.out.Add(int64(n))
	return n, err
}

// tracedTransport is the client-side http.RoundTripper of the traced pass:
// one "http.roundtrip" span per request, open until the response body is
// drained and closed so it contains the server's whole serve span even for
// streamed responses, plus wire byte, round-trip and retry-cause counts.
type tracedTransport struct {
	base *http.Transport
	tr   *tracer

	bytesIn, bytesOut atomic.Int64
	retryCauses       atomic.Int64 // network errors, 5xx and 429: what the client retries
	// metaTips counts the branch tips listed in repository-metadata replies:
	// the have-set a push negotiates against.
	metaTips atomic.Int64
}

func newTracedTransport(tr *tracer) *tracedTransport {
	t := &tracedTransport{tr: tr}
	base := http.DefaultTransport.(*http.Transport).Clone()
	dialer := &net.Dialer{}
	base.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		conn, err := dialer.DialContext(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		return &countingConn{Conn: conn, in: &t.bytesIn, out: &t.bytesOut}, nil
	}
	t.base = base
	return t
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	sp := t.tr.start("http.roundtrip")
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.tr.end(sp)
		t.retryCauses.Add(1)
		return nil, err
	}
	if resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests {
		t.retryCauses.Add(1)
	}
	body := &spanBody{ReadCloser: resp.Body, done: func() { t.tr.end(sp) }}
	if sp >= 0 && resp.StatusCode == http.StatusOK && routeKind(req.Method, req.URL.Path) == "meta" {
		body.tee = &bytes.Buffer{}
		body.done = func() {
			t.tr.end(sp)
			var meta hosting.RepoResponse
			if json.Unmarshal(body.tee.Bytes(), &meta) == nil {
				t.metaTips.Add(int64(len(meta.Tips)))
			}
		}
	}
	resp.Body = body
	return resp, nil
}

// spanBody ends its span when the response body is closed, optionally keeping
// a copy of what was read.
type spanBody struct {
	io.ReadCloser
	tee  *bytes.Buffer
	once sync.Once
	done func()
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if b.tee != nil {
		b.tee.Write(p[:n])
	}
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}
