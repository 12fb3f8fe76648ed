package core

import "sync/atomic"

// Record is one immutable entry of a citation function: a citation that is
// never modified once the record exists. Immutability makes the record the
// unit of sharing — Clone, the copy-on-write map copy, Rename, Merge and
// MigrateSubtree all pass records on by pointer, so every version an entry
// survives into holds the same record — and the unit of reuse for the
// codec: a record carries a write-once memo of its serialised form, so an
// entry is marshalled once however many versions it appears in.
//
// Records are shared between goroutines (a worktree and the repository's
// function cache hold the same ones), which is why the memo is an atomic
// write-once slot rather than a plain field.
type Record struct {
	cite Citation
	enc  atomic.Pointer[Encoding]
}

// Encoding is what a codec memoises on a record: the entry's serialised
// value, and the record decoding those bytes yields — the canonical form
// (for citation.cite: dates truncated to the second in UTC, empty
// authorList/extra nil, strings coerced to valid UTF-8). Canonical is the
// record itself when it already is what the bytes decode to, and nil when
// the bytes do not decode. A canonical record's own Encoding holds the same
// Bytes and points back at itself.
type Encoding struct {
	Bytes     []byte
	Canonical *Record
}

// NewRecord wraps a citation as a record. The record takes ownership of c's
// AuthorList and Extra: the caller must not modify them afterwards.
func NewRecord(c Citation) *Record { return &Record{cite: c} }

// Citation returns the record's citation. AuthorList and Extra share storage
// with the record and must be treated as read-only; Clone before mutating.
func (r *Record) Citation() Citation { return r.cite }

// equal reports whether two records carry equal citations; a shared record
// answers without comparing fields.
func (r *Record) equal(o *Record) bool { return r == o || r.cite.Equal(o.cite) }

// Encoding returns the memoised serialisation, or nil if none was set yet.
func (r *Record) Encoding() *Encoding { return r.enc.Load() }

// SetEncoding memoises e unless another goroutine got there first, and
// returns the encoding the record now carries. A record's encoding never
// changes once set: every caller computes it from the same immutable
// citation, so whichever write wins is equivalent.
func (r *Record) SetEncoding(e *Encoding) *Encoding {
	if r.enc.CompareAndSwap(nil, e) {
		return e
	}
	return r.enc.Load()
}

// PathRecord pairs an active-domain path with its record.
type PathRecord struct {
	Path   string
	Record *Record
}
