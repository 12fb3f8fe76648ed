// Package citefile reads and writes "citation.cite" — the special file the
// paper stores at the root of every project version (§3): "a set of
// key-value entries, where the key is the relative path to the file being
// cited, and the value is the citation attached to the file".
//
// The encoding is JSON with the exact field vocabulary of the paper's
// Listing 1 (repoName, owner, committedDate, commitID, url, authorList) plus
// the optional fields the model carries (doi, version, license, note,
// extra). Encoding is byte-deterministic: keys are sorted, fields appear in
// a fixed order and timestamps are RFC 3339 UTC — so the same citation
// function always produces the same blob (and therefore the same vcs object
// ID).
//
// Directory keys are written with a trailing slash, matching Listing 1
// ("/", "/CoreCover/", "/citation/GUI/"); the reader accepts keys with or
// without it.
package citefile

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"time"
	"unicode/utf8"

	"github.com/gitcite/gitcite/internal/core"
	"github.com/gitcite/gitcite/internal/vcs"
)

// Filename is the citation file's name at the version root.
const Filename = "citation.cite"

// Path is the citation file's clean rooted path within a version tree.
const Path = "/" + Filename

// entryJSON is the wire form of one citation. Field order here is the
// serialisation order.
type entryJSON struct {
	RepoName      string            `json:"repoName,omitempty"`
	Owner         string            `json:"owner,omitempty"`
	CommittedDate string            `json:"committedDate,omitempty"`
	CommitID      string            `json:"commitID,omitempty"`
	URL           string            `json:"url,omitempty"`
	DOI           string            `json:"doi,omitempty"`
	Version       string            `json:"version,omitempty"`
	License       string            `json:"license,omitempty"`
	AuthorList    []string          `json:"authorList,omitempty"`
	Note          string            `json:"note,omitempty"`
	Extra         map[string]string `json:"extra,omitempty"`
}

func toWire(c core.Citation) entryJSON {
	e := entryJSON{
		RepoName:   c.RepoName,
		Owner:      c.Owner,
		CommitID:   c.CommitID,
		URL:        c.URL,
		DOI:        c.DOI,
		Version:    c.Version,
		License:    c.License,
		AuthorList: c.AuthorList,
		Note:       c.Note,
		Extra:      c.Extra,
	}
	if !c.CommittedDate.IsZero() {
		e.CommittedDate = c.CommittedDate.UTC().Format(time.RFC3339)
	}
	return e
}

func fromWire(e entryJSON) (core.Citation, error) {
	c := core.Citation{
		RepoName:   e.RepoName,
		Owner:      e.Owner,
		CommitID:   e.CommitID,
		URL:        e.URL,
		DOI:        e.DOI,
		Version:    e.Version,
		License:    e.License,
		AuthorList: e.AuthorList,
		Note:       e.Note,
		Extra:      e.Extra,
	}
	if e.CommittedDate != "" {
		when, err := time.Parse(time.RFC3339, e.CommittedDate)
		if err != nil {
			return core.Citation{}, fmt.Errorf("citefile: bad committedDate %q: %w", e.CommittedDate, err)
		}
		c.CommittedDate = when.UTC()
	}
	return c, nil
}

// Encode serialises a citation function deterministically. isDir reports
// whether an active-domain path is a directory in the version tree, which
// controls the trailing slash on keys; nil means "no trailing slashes".
//
// The file is a concatenation of per-entry values memoised on the
// function's records (see encoding): an entry is marshalled the first time
// any version containing its record is encoded, so encoding the version
// after a one-entry edit marshals that entry and the re-dated root, and
// copies the rest. Only the key is decided per call — a path can turn from
// file into directory while its citation stays.
func Encode(f *core.Function, isDir func(path string) bool) ([]byte, error) {
	records := f.Records()
	size := len("{\n}\n")
	for _, pr := range records {
		enc, err := encoding(pr.Record)
		if err != nil {
			return nil, err
		}
		size += len(pr.Path) + len(enc.Bytes) + len("  \"/\": ,\n")
	}

	buf := make([]byte, 0, size)
	buf = append(buf, "{\n"...)
	for i, pr := range records {
		key := pr.Path
		if key != "/" && isDir != nil && isDir(pr.Path) {
			key += "/"
		}
		keyJSON, err := json.Marshal(key)
		if err != nil {
			return nil, err
		}
		buf = append(buf, "  "...)
		buf = append(buf, keyJSON...)
		buf = append(buf, ": "...)
		buf = append(buf, pr.Record.Encoding().Bytes...) // memoised by the sizing pass
		if i < len(records)-1 {
			buf = append(buf, ',')
		}
		buf = append(buf, '\n')
	}
	buf = append(buf, "}\n"...)
	return buf, nil
}

// encoding returns the record's memoised file form — its value exactly as
// Encode writes it, and the record Decode reads back from those bytes —
// computing and memoising it on first use. The canonical record is obtained
// by decoding the entry's own bytes, so "canonical" has no definition apart
// from the codec's.
func encoding(r *core.Record) (*core.Encoding, error) {
	if enc := r.Encoding(); enc != nil {
		return enc, nil
	}
	c := r.Citation()
	val, err := json.MarshalIndent(toWire(c), "  ", "  ")
	if err != nil {
		return nil, err
	}
	enc := &core.Encoding{Bytes: val}
	if back, err := DecodeEntry(val); err == nil {
		if reflect.DeepEqual(back, c) {
			enc.Canonical = r
		} else {
			enc.Canonical = core.NewRecord(back)
			// The canonical record encodes to the bytes it was read from,
			// with one exception: JSON writes an invalid byte as the escape
			// \ufffd and the U+FFFD it decodes to verbatim. Such a record
			// is marshalled afresh when a version first holds it.
			if !bytes.Contains(val, []byte(`\ufffd`)) {
				enc.Canonical.SetEncoding(&core.Encoding{Bytes: val, Canonical: enc.Canonical})
			}
		}
	}
	return r.SetEncoding(enc), nil
}

// Canonical returns the function Decode(Encode(f, …)) returns, without
// encoding or decoding anything Encode has not already memoised: every
// record is replaced by its canonical form, which for the records of a
// decoded function is the record itself. ok is false when the encoded file
// would not decode back to a function keyed like f (an entry whose bytes do
// not parse or canonicalise to nothing, a key JSON cannot carry verbatim).
func Canonical(f *core.Function) (canon *core.Function, ok bool) {
	records := f.Records()
	out := make(map[string]*core.Record, len(records))
	for _, pr := range records {
		enc, err := encoding(pr.Record)
		if err != nil || enc.Canonical == nil || !utf8.ValidString(pr.Path) {
			return nil, false
		}
		out[pr.Path] = enc.Canonical
	}
	canon, err := core.FromRecords(out)
	return canon, err == nil
}

// Decode parses a citation file back into a citation function. Keys are
// canonicalised (trailing slashes stripped); the file must contain a root
// entry with the paper's required basic fields.
func Decode(data []byte) (*core.Function, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	var raw map[string]entryJSON
	if err := dec.Decode(&raw); err != nil {
		return nil, fmt.Errorf("citefile: parse: %w", err)
	}
	records := make(map[string]*core.Record, len(raw))
	for key, e := range raw {
		p := key
		if p != "/" {
			p = strings.TrimSuffix(p, "/")
		}
		clean, err := vcs.CleanPath(p)
		if err != nil {
			return nil, fmt.Errorf("citefile: key %q: %w", key, err)
		}
		if _, dup := records[clean]; dup {
			return nil, fmt.Errorf("citefile: duplicate key %q after canonicalisation", clean)
		}
		c, err := fromWire(e)
		if err != nil {
			return nil, err
		}
		records[clean] = core.NewRecord(c)
	}
	return core.FromRecords(records)
}

// EncodeEntry serialises a single citation (used by the hosting API and the
// CLI's JSON output).
func EncodeEntry(c core.Citation) ([]byte, error) {
	return json.MarshalIndent(toWire(c), "", "  ")
}

// DecodeEntry parses a single citation in the wire format.
func DecodeEntry(data []byte) (core.Citation, error) {
	var e entryJSON
	if err := json.Unmarshal(data, &e); err != nil {
		return core.Citation{}, fmt.Errorf("citefile: parse entry: %w", err)
	}
	return fromWire(e)
}
