package core

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
)

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

// RecordTable lets the functions a cache holds share one record per distinct
// entry, however many of them decoded it: versions of a repository repeat
// almost every entry of the version before, and forks repeat all of them.
// A record stands in for another only when their citations are identical —
// equal in every detail reflect.DeepEqual sees, nil apart from empty lists
// and maps included — so no reader can tell the swap happened; records are
// immutable, which is what makes handing one decode's record to another
// safe.
//
// The table keeps two generations: Rotate drops the older one, and a record
// found there moves to the current one. A cache rotates the table with its
// own generations, so the table remembers about the records of the
// functions the cache still holds. The zero value is ready to use; the
// table is safe for concurrent use.
type RecordTable struct {
	mu       sync.Mutex
	seed     maphash.Seed
	cur, old map[uint64]*Record
}

// Intern replaces each record of f with an identical one the table holds and
// adds the rest, under one lock for the whole function. f must be freshly
// built — a decode's result nobody else holds yet — because its entry map is
// rewritten in place.
func (t *RecordTable) Intern(f *Function) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cur == nil {
		t.seed = maphash.MakeSeed()
		t.cur = make(map[uint64]*Record, len(f.entries))
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for p, r := range f.entries {
		h := r.cite.hash(t.seed)
		held, ok := t.cur[h]
		if !ok {
			if held, ok = t.old[h]; ok {
				t.cur[h] = held
			}
		}
		switch {
		case !ok:
			t.cur[h] = r
		case held.cite.identical(&r.cite):
			f.entries[p] = held
		}
	}
}

// Rotate starts a new generation: records not interned again before the
// next Rotate leave the table (the functions holding them keep them).
func (t *RecordTable) Rotate() {
	t.mu.Lock()
	if t.cur != nil {
		t.old, t.cur = t.cur, make(map[uint64]*Record, len(t.cur))
	}
	t.mu.Unlock()
}

// hash digests what identical compares (all but the date's location, which
// a decoded date does not vary): one maphash.String per string, folded in
// order, and Extra folded in order-independently.
func (c *Citation) hash(seed maphash.Seed) uint64 {
	const mix = 0x9e3779b97f4a7c15 // odd, so each fold is a bijection
	h := uint64(c.CommittedDate.Unix())*mix ^ uint64(c.CommittedDate.Nanosecond())
	for _, s := range [...]string{c.RepoName, c.Owner, c.CommitID, c.URL, c.DOI, c.Version, c.License, c.Note} {
		h = (h ^ maphash.String(seed, s)) * mix
	}
	if c.AuthorList != nil {
		h = (h ^ 1) * mix
		for _, a := range c.AuthorList {
			h = (h ^ maphash.String(seed, a)) * mix
		}
	}
	if c.Extra != nil {
		sum := uint64(2)
		for k, v := range c.Extra {
			sum += maphash.String(seed, k)*mix ^ maphash.String(seed, v)
		}
		h = (h ^ sum) * mix
	}
	return h
}

// identical reports whether two citations cannot be told apart: every field
// equal, dates as time.Time values (instant, location and all), and nil
// author lists and extras distinct from empty ones. Equal's semantic
// equality is too loose for one record to stand in for another.
func (c *Citation) identical(o *Citation) bool {
	if c.RepoName != o.RepoName || c.Owner != o.Owner || c.CommitID != o.CommitID ||
		c.URL != o.URL || c.DOI != o.DOI || c.Version != o.Version ||
		c.License != o.License || c.Note != o.Note || c.CommittedDate != o.CommittedDate {
		return false
	}
	if (c.AuthorList == nil) != (o.AuthorList == nil) || len(c.AuthorList) != len(o.AuthorList) {
		return false
	}
	for i := range c.AuthorList {
		if c.AuthorList[i] != o.AuthorList[i] {
			return false
		}
	}
	if (c.Extra == nil) != (o.Extra == nil) || len(c.Extra) != len(o.Extra) {
		return false
	}
	for k, v := range c.Extra {
		if ov, ok := o.Extra[k]; !ok || ov != v {
			return false
		}
	}
	return true
}
