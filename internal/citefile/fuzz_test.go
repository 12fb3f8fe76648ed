package citefile

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/gitcite/gitcite/internal/core"
)

// TestGenerateFuzzCorpus regenerates the committed seed corpus of
// FuzzCiteEntryCanonical. Env-gated; see the store package's generator for
// usage.
func TestGenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("GEN_FUZZ_CORPUS") == "" {
		t.Skip("corpus generator; set GEN_FUZZ_CORPUS=1 to rewrite testdata/fuzz")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzCiteEntryCanonical")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	seed := func(name, wire string, nsec int64, zoneMinutes int16, emptyLists bool, note string) {
		content := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\nint64(%d)\nint16(%d)\nbool(%v)\nstring(%q)\n", wire, nsec, zoneMinutes, emptyLists, note)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	full := `{"repoName":"r","owner":"o","committedDate":"2018-09-04T02:35:20Z","commitID":"bbd248a","url":"u","doi":"10.1/x","version":"1","license":"MIT","authorList":["a","b"],"note":"n","extra":{"k":"v"}}`
	seed("canonical", full, 0, 0, false, "")
	seed("subsecond-zoned", full, 987654321, -330, false, "")
	seed("empty-lists", `{"owner":"o"}`, 0, 0, true, "")
	seed("invalid-utf8", full, 0, 0, false, "bad\xffbyte and a literal \\ufffd")
	seed("replacement-char", `{"note":"valid \ufffd stays"}`, 0, 0, false, "")
	seed("escapes", `{"owner":"a<b>&c \u2028 \"q\" \\ \t"}`, 0, 0, false, "")
	seed("year-10000", `{"committedDate":"9999-12-31T23:59:59-14:00"}`, 0, 0, false, "") // parses; its UTC form does not
	seed("date-only-first-second", `{"committedDate":"0001-01-01T00:00:00Z"}`, 5, 0, false, "")
	seed("duplicate-extra-keys", `{"extra":{"a":"1","a":"2"}}`, 0, 0, false, "")
}

// FuzzCiteEntryCanonical holds the per-record memo to the codec it
// shortcuts. For any citation — built from an arbitrary wire entry, with its
// date pushed off the canonical form by nanoseconds and a zone — the
// memoised canonical record is DecodeEntry(EncodeEntry(c)); it is its own
// canonical form; and the bytes it carries over from the record it was
// derived from are the bytes marshalling it afresh gives. The last is what
// lets a version reuse entry bytes across commits without changing a byte of
// any citation.cite.
func FuzzCiteEntryCanonical(f *testing.F) {
	listing1, err := EncodeEntry(rootCitation())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(listing1, int64(0), int16(0), false, "")
	f.Fuzz(func(t *testing.T, wire []byte, nsec int64, zoneMinutes int16, emptyLists bool, note string) {
		c, err := DecodeEntry(wire)
		if err != nil {
			return
		}
		if note != "" {
			c.Note = note // unlike anything DecodeEntry returns, possibly not UTF-8
		}
		if !c.CommittedDate.IsZero() {
			zone := time.FixedZone("fuzz", int(zoneMinutes%(15*60))*60)
			c.CommittedDate = c.CommittedDate.Add(time.Duration(nsec % int64(time.Second))).In(zone)
		}
		if emptyLists && c.AuthorList == nil && c.Extra == nil {
			c.AuthorList, c.Extra = []string{}, map[string]string{}
		}

		enc, err := encoding(core.NewRecord(c))
		if err != nil {
			t.Fatal(err)
		}
		standalone, err := EncodeEntry(c)
		if err != nil {
			t.Fatal(err)
		}
		want, err := DecodeEntry(standalone)
		if err != nil {
			if enc.Canonical != nil {
				t.Fatalf("entry does not decode (%v) yet has a canonical record", err)
			}
			return
		}
		if enc.Canonical == nil {
			t.Fatal("entry decodes yet has no canonical record")
		}
		canon := enc.Canonical
		if got := canon.Citation(); !reflect.DeepEqual(got, want) {
			t.Fatalf("canonical record is not DecodeEntry(EncodeEntry(c))\n got: %+v\nwant: %+v", got, want)
		}
		memo, err := encoding(canon)
		if err != nil {
			t.Fatal(err)
		}
		if memo.Canonical != canon {
			t.Fatal("the canonical record is not its own canonical form")
		}
		fresh, err := encoding(core.NewRecord(want))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(memo.Bytes, fresh.Bytes) {
			t.Fatalf("canonical record carries bytes a fresh marshal does not give\nmemo:  %s\nfresh: %s", memo.Bytes, fresh.Bytes)
		}
		if fresh.Canonical == nil || !reflect.DeepEqual(fresh.Canonical.Citation(), want) {
			t.Fatal("encoding the canonical form is not a fixed point")
		}
	})
}
