package citefile

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/gitcite/gitcite/internal/core"
)

func rootCitation() core.Citation {
	return core.Citation{
		RepoName:      "Data_citation_demo",
		Owner:         "Yinjun Wu",
		CommittedDate: time.Date(2018, 9, 4, 2, 35, 20, 0, time.UTC),
		CommitID:      "bbd248a",
		URL:           "https://github.com/thuwuyinjun/Data_citation_demo",
		AuthorList:    []string{"Yinjun Wu"},
	}
}

func demoFunction(t testing.TB) (*core.Function, *core.PathSet) {
	t.Helper()
	tree := core.MustPathSet(
		"/CoreCover/rewrite.py",
		"/citation/GUI/app.js",
		"/src/main.py",
	)
	f := core.MustNewFunction(rootCitation())
	coreCover := core.Citation{
		RepoName:      "alu01-corecover",
		Owner:         "Chen Li",
		CommittedDate: time.Date(2018, 3, 24, 0, 29, 45, 0, time.UTC),
		CommitID:      "5cc951e",
		URL:           "https://github.com/chenlica/alu01-corecover",
		AuthorList:    []string{"Chen Li"},
	}
	if err := f.Add(tree, "/CoreCover", coreCover); err != nil {
		t.Fatal(err)
	}
	gui := core.Citation{
		RepoName:      "Data_citation_demo",
		Owner:         "Yinjun Wu",
		CommittedDate: time.Date(2017, 6, 16, 20, 57, 6, 0, time.UTC),
		CommitID:      "2dd6813",
		URL:           "https://github.com/thuwuyinjun/Data_citation_demo",
		AuthorList:    []string{"Yanssie"},
	}
	if err := f.Add(tree, "/citation/GUI", gui); err != nil {
		t.Fatal(err)
	}
	return f, tree
}

func TestEncodeListingOneShape(t *testing.T) {
	f, tree := demoFunction(t)
	data, err := Encode(f, tree.IsDir)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	// Directory keys carry trailing slashes like Listing 1.
	for _, want := range []string{`"/"`, `"/CoreCover/"`, `"/citation/GUI/"`} {
		if !strings.Contains(s, want) {
			t.Errorf("encoded file missing key %s:\n%s", want, s)
		}
	}
	// Field vocabulary of Listing 1.
	for _, want := range []string{`"repoName"`, `"owner"`, `"committedDate"`, `"commitID"`, `"url"`, `"authorList"`} {
		if !strings.Contains(s, want) {
			t.Errorf("encoded file missing field %s", want)
		}
	}
	for _, want := range []string{"2018-09-04T02:35:20Z", "2018-03-24T00:29:45Z", "2017-06-16T20:57:06Z"} {
		if !strings.Contains(s, want) {
			t.Errorf("encoded file missing timestamp %s", want)
		}
	}
	// Valid JSON.
	var anything map[string]any
	if err := json.Unmarshal(data, &anything); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	// Field order within an entry: repoName before owner before committedDate.
	iRepo := strings.Index(s, `"repoName"`)
	iOwner := strings.Index(s, `"owner"`)
	iDate := strings.Index(s, `"committedDate"`)
	if !(iRepo < iOwner && iOwner < iDate) {
		t.Error("field order does not match Listing 1")
	}
}

func TestRoundTrip(t *testing.T) {
	f, tree := demoFunction(t)
	data, err := Encode(f, tree.IsDir)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(f) {
		t.Errorf("round trip changed function:\noriginal: %+v\ndecoded:  %+v", f.ActiveDomain(), back.ActiveDomain())
	}
}

func TestEncodeDeterministic(t *testing.T) {
	f, tree := demoFunction(t)
	a, err := Encode(f, tree.IsDir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		b, err := Encode(f.Clone(), tree.IsDir)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("iteration %d produced different bytes", i)
		}
	}
}

func TestEncodeNilIsDir(t *testing.T) {
	f, _ := demoFunction(t)
	data, err := Encode(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"/CoreCover/"`) {
		t.Error("nil isDir still emitted trailing slash")
	}
	if !strings.Contains(string(data), `"/CoreCover"`) {
		t.Error("key missing entirely")
	}
	if _, err := Decode(data); err != nil {
		t.Errorf("decode of slashless file: %v", err)
	}
}

func TestDecodeAcceptsBothKeyStyles(t *testing.T) {
	input := `{
	  "/": {"repoName": "r", "owner": "o", "url": "u", "version": "1"},
	  "/dir/": {"owner": "dirOwner"},
	  "/file.txt": {"owner": "fileOwner"}
	}`
	f, err := Decode([]byte(input))
	if err != nil {
		t.Fatal(err)
	}
	if !f.Has("/dir") || !f.Has("/file.txt") {
		t.Errorf("paths = %v", f.Paths())
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := map[string]string{
		"not json":      `{`,
		"no root":       `{"/x": {"owner": "o"}}`,
		"invalid root":  `{"/": {"note": "missing required fields"}}`,
		"bad timestamp": `{"/": {"repoName": "r", "owner": "o", "url": "u", "committedDate": "late 2018"}}`,
		"dup key":       `{"/": {"repoName": "r", "owner": "o", "url": "u", "version": "1"}, "/d": {"owner": "a"}, "/d/": {"owner": "b"}}`,
		"escaping key":  `{"/": {"repoName": "r", "owner": "o", "url": "u", "version": "1"}, "/../x": {"owner": "a"}}`,
	}
	for name, input := range cases {
		if _, err := Decode([]byte(input)); err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
		}
	}
}

func TestEntryRoundTrip(t *testing.T) {
	c := rootCitation()
	c.DOI = "10.5281/zenodo.1003150"
	c.License = "MIT"
	c.Note = "imported"
	c.Extra = map[string]string{"grant": "NSF-123"}
	data, err := EncodeEntry(c)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeEntry(data)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(c) {
		t.Errorf("entry round trip: %+v vs %+v", back, c)
	}
	if _, err := DecodeEntry([]byte(`{"authorList": "not-a-list"}`)); err == nil {
		t.Error("bad entry accepted")
	}
}

func TestTimestampNormalisedToUTC(t *testing.T) {
	loc := time.FixedZone("EST", -5*3600)
	c := rootCitation()
	c.CommittedDate = time.Date(2018, 9, 3, 21, 35, 20, 0, loc) // same instant as the UTC value
	f := core.MustNewFunction(c)
	data, err := Encode(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "2018-09-04T02:35:20Z") {
		t.Errorf("timestamp not normalised to UTC:\n%s", data)
	}
}

// quick property (I6): encode∘decode is the identity for random functions,
// and encoding is deterministic.
func TestQuickRoundTrip(t *testing.T) {
	f := func(nEntries uint8, seed int64) bool {
		fn := core.MustNewFunction(core.Citation{
			RepoName: "r", Owner: "o", URL: "u", Version: "1",
			CommittedDate: time.Unix(seed%1e9, 0).UTC(),
		})
		n := int(nEntries % 20)
		var paths []string
		for i := 0; i < n; i++ {
			paths = append(paths, "/d/"+string(rune('a'+i%26))+"/f.txt")
		}
		tree := core.AnyTree()
		for i, p := range paths {
			c := core.Citation{Owner: "owner", Note: p, Version: "1"}
			if i%2 == 0 {
				c.AuthorList = []string{"A", "B"}
				c.Extra = map[string]string{"i": p}
			}
			if err := fn.Set(tree, p, c); err != nil {
				return false
			}
		}
		data1, err := Encode(fn, nil)
		if err != nil {
			return false
		}
		back, err := Decode(data1)
		if err != nil {
			return false
		}
		data2, err := Encode(back, nil)
		if err != nil {
			return false
		}
		return back.Equal(fn) && bytes.Equal(data1, data2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
