package core

import (
	"testing"
	"time"
)

// TestRecordTableSharesOnlyIdentical: the table swaps a record for one it
// holds only when no reader could tell them apart — semantically equal
// citations that differ in representation (nil against empty lists and
// maps, a date's location) keep their own records.
func TestRecordTableSharesOnlyIdentical(t *testing.T) {
	when := time.Date(2020, 1, 2, 3, 4, 5, 0, time.UTC)
	base := Citation{Owner: "o", RepoName: "r", URL: "u", CommittedDate: when, AuthorList: []string{"a"}, Extra: map[string]string{"k": "v"}}
	bare := Citation{Owner: "o", RepoName: "r", URL: "u"}
	fn := func(c Citation) *Function {
		f := MustNewFunction(Citation{Owner: "root", RepoName: "r", URL: "u", Version: "1"})
		f.entries["/p"] = NewRecord(c)
		return f
	}
	// Each case interns its first citation, then its second: the second
	// must keep its own record.
	for name, pair := range map[string][2]Citation{
		"nil-vs-empty-authors": {bare, {Owner: "o", RepoName: "r", URL: "u", AuthorList: []string{}}},
		"empty-vs-nil-authors": {{Owner: "o", RepoName: "r", URL: "u", AuthorList: []string{}}, bare},
		"nil-vs-empty-extra":   {bare, {Owner: "o", RepoName: "r", URL: "u", Extra: map[string]string{}}},
		"empty-vs-nil-extra":   {{Owner: "o", RepoName: "r", URL: "u", Extra: map[string]string{}}, bare},
		"zoned-date":           {base, {Owner: "o", RepoName: "r", URL: "u", CommittedDate: when.In(time.FixedZone("z", 3600)), AuthorList: []string{"a"}, Extra: map[string]string{"k": "v"}}},
		"other-author":         {base, {Owner: "o", RepoName: "r", URL: "u", CommittedDate: when, AuthorList: []string{"b"}, Extra: map[string]string{"k": "v"}}},
		"other-extra":          {base, {Owner: "o", RepoName: "r", URL: "u", CommittedDate: when, AuthorList: []string{"a"}, Extra: map[string]string{"k": "w"}}},
	} {
		var table RecordTable
		first, second := fn(pair[0]), fn(pair[1])
		table.Intern(first)
		table.Intern(second)
		if second.entries["/p"] == first.entries["/p"] {
			t.Errorf("%s: shared with a record that reads differently", name)
		}
	}

	var table RecordTable
	first := fn(base.Clone())
	table.Intern(first)
	held := first.entries["/p"]
	again := fn(base.Clone())
	table.Intern(again)
	if again.entries["/p"] != held || again.entries["/"] != first.entries["/"] {
		t.Error("identical entries were not shared")
	}

	// Across one rotation a record is still found (and moves forward);
	// across two, it is gone.
	table.Rotate()
	f := fn(base.Clone())
	table.Intern(f)
	if f.entries["/p"] != held {
		t.Error("a record of the previous generation was not shared")
	}
	table.Rotate()
	table.Rotate()
	f = fn(base.Clone())
	table.Intern(f)
	if f.entries["/p"] == held {
		t.Error("a record two generations old was still shared")
	}
}

// TestWarmResolveAllocatesNothing: a repeat resolution — by path or by
// interned key — allocates nothing, and sees the function's current entries.
func TestWarmResolveAllocatesNothing(t *testing.T) {
	f := MustNewFunction(Citation{Owner: "root", RepoName: "r", URL: "u", Version: "1"})
	tree := MustPathSet("/a/b/c/d.txt")
	if err := f.Add(tree, "/a/b", Citation{Owner: "x", AuthorList: []string{"x"}}); err != nil {
		t.Fatal(err)
	}
	var paths PathTable
	key, err := paths.Intern("/a/b/c/d.txt")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if c, from, err := f.Resolve("/a/b/c/d.txt"); err != nil || from != "/a/b" || c.Owner != "x" {
			t.Fatalf("Resolve = %v from %q (%v)", c, from, err)
		}
		if c, from, err := f.ResolveKey(key); err != nil || from != "/a/b" || c.Owner != "x" {
			t.Fatalf("ResolveKey = %v from %q (%v)", c, from, err)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _, _, _ = f.Resolve("/a/b/c/d.txt") }); n != 0 {
		t.Errorf("warm Resolve allocates %v times", n)
	}
	if n := testing.AllocsPerRun(100, func() { _, _, _ = f.ResolveKey(key) }); n != 0 {
		t.Errorf("warm ResolveKey allocates %v times", n)
	}
	if err := f.Modify("/a/b", Citation{Owner: "y"}); err != nil {
		t.Fatal(err)
	}
	if c, _, _ := f.Resolve("/a/b/c/d.txt"); c.Owner != "y" {
		t.Errorf("resolution missed a mutation: %v", c)
	}
}

// TestResolveRetainsNothing: a read changes nothing. On a function built as
// a codec builds one, the very first Resolve and the very first ResolveKey
// each allocate nothing, so neither can have stored an answer.
func TestResolveRetainsNothing(t *testing.T) {
	const runs = 50
	fresh := make([]*Function, 2*(runs+1)) // AllocsPerRun adds a warm-up call
	for i := range fresh {
		f, err := FromRecords(map[string]*Record{
			"/":    NewRecord(Citation{Owner: "root", RepoName: "r", URL: "u", Version: "1"}),
			"/a/b": NewRecord(Citation{Owner: "x", AuthorList: []string{"x"}}),
		})
		if err != nil {
			t.Fatal(err)
		}
		fresh[i] = f
	}
	var paths PathTable
	key, err := paths.Intern("/a/b/c/d.txt")
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	if n := testing.AllocsPerRun(runs, func() {
		if _, from, _ := fresh[next].Resolve("/a/b/c/d.txt"); from != "/a/b" {
			t.Fatalf("Resolve from %q", from)
		}
		next++
	}); n != 0 {
		t.Errorf("first Resolve allocates %v times", n)
	}
	if n := testing.AllocsPerRun(runs, func() {
		if _, from, _ := fresh[next].ResolveKey(key); from != "/a/b" {
			t.Fatalf("ResolveKey from %q", from)
		}
		next++
	}); n != 0 {
		t.Errorf("first ResolveKey allocates %v times", n)
	}
}
