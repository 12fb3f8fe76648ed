// wire.go defines the v1 wire protocol: the stable machine-readable error
// body, the negotiate/sync message types, and the NDJSON object-stream codec
// shared by the server handlers and the browser-extension client. One object
// travels per line, so neither side ever buffers a whole closure.
package hosting

import (
	"bufio"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"

	"github.com/gitcite/gitcite/internal/vcs/object"
)

// APIv1Prefix is the path prefix of the versioned API.
const APIv1Prefix = "/api/v1"

// MediaTypeNDJSON is the content type of streamed object transfers.
const MediaTypeNDJSON = "application/x-ndjson"

// Stable machine-readable error codes carried in ErrorResponse.Code.
// Clients switch on these instead of parsing free-text messages.
const (
	CodeUnauthorized = "unauthorized"  // 401: missing or invalid token
	CodeForbidden    = "forbidden"     // 403: authenticated but not a member
	CodeNotFound     = "not_found"     // 404: repo/branch/commit/object absent
	CodeConflict     = "conflict"      // 409: duplicate name or non-fast-forward
	CodeAmbiguousRef = "ambiguous_ref" // 409: abbreviated commit ID matches several commits
	CodeBadRequest   = "bad_request"   // 400: malformed body, path or cursor
	CodeRateLimited  = "rate_limited"  // 429: per-token rate limit exceeded
	CodeInternal     = "internal"      // 500: anything else
	// CodeReplicaReadOnly is 307: this server is a read replica; the
	// Location header points the write at the primary.
	CodeReplicaReadOnly = "replica_read_only"
	// CodeNotCaughtUp is 409: promotion refused because the replica's
	// applied cursor is behind the primary's head.
	CodeNotCaughtUp = "replica_lagging"
)

// ErrorResponse is the JSON error body. Code is one of the Code* constants;
// Error is the human-readable message (not stable, do not match on it).
type ErrorResponse struct {
	Code  string `json:"code,omitempty"`
	Error string `json:"error"`
}

// NegotiateModeWantAll asks the server to skip the per-object Missing list
// and answer with just the resolved tip and an object count. A client with
// no prior state (a cold clone) sets it and then streams the closure from
// the pull endpoint, so neither negotiate body scales with repository size
// — without it, a cold clone's negotiate response carries one ID per
// object.
const NegotiateModeWantAll = "want-all"

// NegotiateRequest opens an incremental sync: the client names the revision
// it wants and the commit tips it already has (with, by the store closure
// invariant, their full reachable object graphs). Unknown or malformed have
// entries are ignored — claiming too little only costs bandwidth. Mode is
// empty (list the missing IDs) or NegotiateModeWantAll.
type NegotiateRequest struct {
	Want string   `json:"want"`
	Have []string `json:"have,omitempty"`
	Mode string   `json:"mode,omitempty"`
}

// NegotiateResponse answers with the resolved tip and exactly the object IDs
// the client is missing, computed by a frontier walk that stops at known
// commits — O(delta), not O(closure), for an up-to-date client. Under
// NegotiateModeWantAll the ID list is suppressed: All is true, Count
// reports how many objects the client lacks, and the body stays O(1)
// however large the repository is.
type NegotiateResponse struct {
	Tip     string   `json:"tip"`
	Missing []string `json:"missing,omitempty"`
	All     bool     `json:"all,omitempty"`
	Count   int      `json:"count,omitempty"`
}

// FetchRequest asks for the listed objects as an NDJSON stream — one chunk
// of the Missing list of a preceding negotiate. Clients cap the IDs per
// request (extension.Client splits large deltas into several fetches), so
// no single request body has to carry an entire closure's ID list.
type FetchRequest struct {
	IDs []string `json:"ids"`
}

// PushHeader is the first JSON value of a v1 push stream; the object lines
// follow it in the same body.
type PushHeader struct {
	Branch string `json:"branch"`
	Tip    string `json:"tip"`
}

// PullHeader is the first JSON value of a v1 streaming pull response.
type PullHeader struct {
	Tip string `json:"tip"`
}

// objectLine is one NDJSON transfer line: the base64 of one canonical object
// encoding. The std base64 alphabet needs no JSON escaping, so lines are
// written by concatenation, not json.Marshal.
type objectLine struct {
	D string `json:"d"`
}

// ObjectStreamWriter writes an NDJSON object stream. Not safe for concurrent
// use. Call Flush before returning the underlying writer to its owner.
type ObjectStreamWriter struct {
	bw *bufio.Writer
	n  int
}

// NewObjectStreamWriter wraps w in a buffered NDJSON object encoder.
func NewObjectStreamWriter(w io.Writer) *ObjectStreamWriter {
	return &ObjectStreamWriter{bw: bufio.NewWriterSize(w, 32<<10)}
}

// WriteValue writes one arbitrary JSON value as its own line — the stream
// header slot (PushHeader, PullHeader).
func (w *ObjectStreamWriter) WriteValue(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if _, err := w.bw.Write(data); err != nil {
		return err
	}
	return w.bw.WriteByte('\n')
}

// WriteEncoded writes one canonical object encoding as one line.
func (w *ObjectStreamWriter) WriteEncoded(enc []byte) error {
	if _, err := w.bw.WriteString(`{"d":"`); err != nil {
		return err
	}
	if _, err := w.bw.WriteString(base64.StdEncoding.EncodeToString(enc)); err != nil {
		return err
	}
	if _, err := w.bw.WriteString("\"}\n"); err != nil {
		return err
	}
	w.n++
	return nil
}

// WriteObject encodes and writes one object.
func (w *ObjectStreamWriter) WriteObject(o object.Object) error {
	return w.WriteEncoded(object.Encode(o))
}

// Count reports how many objects have been written (headers excluded).
func (w *ObjectStreamWriter) Count() int { return w.n }

// Flush drains the internal buffer to the underlying writer.
func (w *ObjectStreamWriter) Flush() error { return w.bw.Flush() }

// ObjectStreamReader reads an NDJSON object stream. Not safe for concurrent
// use.
type ObjectStreamReader struct {
	dec *json.Decoder
	n   int
}

// NewObjectStreamReader wraps r in an NDJSON object decoder.
func NewObjectStreamReader(r io.Reader) *ObjectStreamReader {
	return &ObjectStreamReader{dec: json.NewDecoder(bufio.NewReaderSize(r, 32<<10))}
}

// ReadHeader decodes the stream's leading JSON value (PushHeader/PullHeader).
// It must be called before the first Next, if the stream carries a header.
func (r *ObjectStreamReader) ReadHeader(v any) error {
	if err := r.dec.Decode(v); err != nil {
		return fmt.Errorf("hosting: stream header: %w", err)
	}
	return nil
}

// Next returns the next object together with its canonical encoding. It
// returns io.EOF once the stream ends cleanly.
func (r *ObjectStreamReader) Next() (object.Object, []byte, error) {
	var ln objectLine
	if err := r.dec.Decode(&ln); err != nil {
		if err == io.EOF {
			return nil, nil, io.EOF
		}
		return nil, nil, fmt.Errorf("hosting: object stream: %w", err)
	}
	enc, err := base64.StdEncoding.DecodeString(ln.D)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: object line: %v", ErrBadRequest, err)
	}
	o, err := object.Decode(enc)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: object: %v", ErrBadRequest, err)
	}
	r.n++
	return o, enc, nil
}

// Count reports how many objects have been read (headers excluded).
func (r *ObjectStreamReader) Count() int { return r.n }
