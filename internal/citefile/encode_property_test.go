package citefile_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/gitcite/gitcite/internal/citefile"
	"github.com/gitcite/gitcite/internal/core"
	"github.com/gitcite/gitcite/internal/vcs"
)

// awkwardCitation draws a citation that exercises everything the codec
// normalises: sub-second and zoned dates, empty-but-non-nil lists and maps,
// strings JSON must escape or coerce.
func awkwardCitation(rng *rand.Rand, tag string) core.Citation {
	texts := []string{"plain", "a<b>&c", "quote\"back\\slash", "tab\tnewline\n", "bad\xffutf8", "sep para ", "ünïcödé"}
	pick := func() string { return texts[rng.Intn(len(texts))] + tag }
	c := core.Citation{RepoName: pick(), Owner: pick(), URL: "https://x/" + tag}
	switch rng.Intn(4) {
	case 0:
		c.CommittedDate = time.Unix(rng.Int63n(2e9), rng.Int63n(1e9)) // local zone, nanoseconds
	case 1:
		c.CommittedDate = time.Unix(rng.Int63n(2e9), 0).In(time.FixedZone("x", 3600*(rng.Intn(25)-12)))
	case 2:
		c.CommittedDate = time.Unix(rng.Int63n(2e9), 0).UTC()
	}
	switch rng.Intn(3) {
	case 0:
		c.AuthorList = []string{}
	case 1:
		c.AuthorList = []string{pick(), pick()}
	}
	switch rng.Intn(3) {
	case 0:
		c.Extra = map[string]string{}
	case 1:
		c.Extra = map[string]string{pick(): pick(), "k": pick()}
	}
	if rng.Intn(2) == 0 {
		c.Version, c.DOI, c.Note, c.License, c.CommitID = pick(), pick(), pick(), pick(), pick()
	}
	return c
}

// script is a citation function and the file set of the version it
// describes, mutated together by random steps.
type script struct {
	t     *testing.T
	rng   *rand.Rand
	files map[string]bool
	fn    *core.Function
	n     int
}

func (s *script) tree() *core.PathSet {
	paths := make([]string, 0, len(s.files))
	for p := range s.files {
		paths = append(paths, p)
	}
	ps, err := core.NewPathSet(paths...)
	if err != nil {
		s.t.Fatal(err)
	}
	return ps
}

// somePath picks an existing file or directory other than the root.
func (s *script) somePath() string {
	all := s.tree().Paths()
	return all[1+s.rng.Intn(len(all)-1)]
}

func (s *script) tag() string { s.n++; return fmt.Sprint("#", s.n) }

// step applies one random operator; operators that do not apply to the
// current state (Add on a cited path, Delete on an uncited one) are skipped
// by their own error.
func (s *script) step() {
	rng := s.rng
	switch rng.Intn(9) {
	case 0: // AddCite
		_ = s.fn.Add(s.tree(), s.somePath(), awkwardCitation(rng, s.tag()))
	case 1: // ModifyCite, the root included
		paths := s.fn.Paths()
		p := paths[rng.Intn(len(paths))]
		c := awkwardCitation(rng, s.tag())
		if p == "/" {
			c.Version = "v" + s.tag()
		}
		if err := s.fn.Modify(p, c); err != nil {
			s.t.Fatal(err)
		}
	case 2: // DelCite
		_ = s.fn.Delete(s.somePath())
	case 3: // rename a file or a whole directory
		from, to := s.somePath(), "/moved"+s.tag()
		for p := range s.files {
			if vcs.IsAncestorPath(from, p) {
				np, err := vcs.RebasePath(p, from, to)
				if err != nil {
					s.t.Fatal(err)
				}
				delete(s.files, p)
				s.files[np] = true
			}
		}
		if err := s.fn.Rename(from, to); err != nil {
			s.t.Fatal(err)
		}
	case 4: // a cited file becomes a directory, keeping its citation
		for _, p := range s.fn.Paths() {
			if s.files[p] {
				delete(s.files, p)
				s.files[p+"/inner.txt"] = true
				break
			}
		}
	case 5: // a cited directory collapses into a file, keeping its citation
		tree := s.tree()
		for _, p := range s.fn.Paths() {
			if p != "/" && tree.IsDir(p) {
				for f := range s.files {
					if vcs.IsAncestorPath(p, f) {
						delete(s.files, f)
					}
				}
				s.files[p] = true
				s.fn.Prune(s.tree())
				break
			}
		}
	case 6: // new files; old ones go, and their citations with them
		added := fmt.Sprintf("/d%d/e%d/f%s.txt", rng.Intn(3), rng.Intn(3), s.tag())
		s.files[added] = true
		if _, err := core.NewPathSet(vcs.SortedPaths(s.files)...); err != nil {
			delete(s.files, added) // a directory of the new path is a file by now
		}
		if len(s.files) > 4 {
			for p := range s.files {
				delete(s.files, p)
				break
			}
		}
		s.fn.Prune(s.tree())
	case 7: // CopyCite's citation half, from a donor with its own records
		donor := core.MustNewFunction(core.Citation{RepoName: "donor", Owner: "d", URL: "u", Version: "1"})
		donorTree := core.MustPathSet("/pkg/a.txt", "/pkg/sub/b.txt")
		for _, p := range []string{"/pkg", "/pkg/sub/b.txt"} {
			if rng.Intn(3) > 0 {
				if err := donor.Add(donorTree, p, awkwardCitation(rng, s.tag())); err != nil {
					s.t.Fatal(err)
				}
			}
		}
		dst := "/vendor" + s.tag()
		s.files[dst+"/a.txt"], s.files[dst+"/sub/b.txt"] = true, true
		if _, err := s.fn.MigrateSubtree(donor, "/pkg", dst, s.tree(), core.CopyOptions{}); err != nil {
			s.t.Fatal(err)
		}
	case 8: // MergeCite's citation half, against a clone that diverged
		theirs := s.fn.Clone()
		for i := 0; i < 3; i++ {
			p := s.somePath()
			if theirs.Has(p) && rng.Intn(2) == 0 {
				_ = theirs.Delete(p)
			} else if err := theirs.Set(s.tree(), p, awkwardCitation(rng, s.tag())); err != nil {
				s.t.Fatal(err)
			}
		}
		if paths := s.fn.Paths(); len(paths) > 1 {
			if err := s.fn.Modify(paths[1], awkwardCitation(rng, s.tag())); err != nil {
				s.t.Fatal(err)
			}
		}
		strategies := []core.Strategy{core.StrategyOurs, core.StrategyTheirs, core.StrategyNewest}
		res, err := core.Merge(s.fn, theirs, s.tree(), core.MergeOptions{Strategy: strategies[rng.Intn(len(strategies))]})
		if err != nil {
			s.t.Fatal(err)
		}
		s.fn = res.Function
	}
}

// TestEncodeMatchesFromScratchEncoderProperty: whatever sequence of
// operators produced a function — and whatever its records carry memoised
// from the versions before — Encode writes the bytes the from-scratch
// encoder writes, and Canonical is the function Decode reads back from them.
func TestEncodeMatchesFromScratchEncoderProperty(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := &script{t: t, rng: rng, files: map[string]bool{"/README.md": true, "/src/main.go": true, "/src/lib/util.go": true}}
		s.fn = core.MustNewFunction(core.Citation{RepoName: "proj", Owner: "o", URL: "u", Version: "0"})
		for step := 0; step < 150; step++ {
			s.step()
			isDir := s.tree().IsDir
			if rng.Intn(3) == 0 {
				// Not every version is encoded: memos are filled at uneven
				// points of a record's life.
				continue
			}
			got, err := citefile.Encode(s.fn, isDir)
			if err != nil {
				t.Fatal(err)
			}
			want, err := citefile.OracleEncode(s.fn, isDir)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d step %d: Encode differs from the from-scratch encoder\n got: %s\nwant: %s", seed, step, got, want)
			}
			canon, ok := citefile.Canonical(s.fn)
			decoded, err := citefile.Decode(got)
			if ok != (err == nil) {
				t.Fatalf("seed %d step %d: Canonical ok=%v but Decode err=%v", seed, step, ok, err)
			}
			if !ok {
				continue
			}
			if !reflect.DeepEqual(canon.ActiveDomain(), decoded.ActiveDomain()) {
				t.Fatalf("seed %d step %d: Canonical is not what Decode returns\n got: %+v\nwant: %+v", seed, step, canon.ActiveDomain(), decoded.ActiveDomain())
			}
			// The canonical function encodes as the from-scratch encoder
			// encodes it, whether its records carry the bytes of the
			// records they were derived from (canon) or none (decoded) —
			// and to the same file, unless JSON had to replace an invalid
			// byte: the escape it wrote is then read back as U+FFFD, which
			// it writes verbatim.
			for _, f := range []*core.Function{canon, decoded} {
				again, err := citefile.Encode(f, isDir)
				if err != nil {
					t.Fatal(err)
				}
				if want, _ := citefile.OracleEncode(f, isDir); !bytes.Equal(again, want) {
					t.Fatalf("seed %d step %d: Encode of the canonical function differs from the from-scratch encoder\n got: %s\nwant: %s", seed, step, again, want)
				}
				if !bytes.Equal(again, got) && !bytes.Contains(got, []byte(`\ufffd`)) {
					t.Fatalf("seed %d step %d: encoding the canonical function is not a fixed point", seed, step)
				}
			}
			if rng.Intn(4) == 0 {
				// Carry on from the canonical records, as a worktree does
				// after Commit.
				s.fn.Assign(canon)
			}
		}
	}
}

// unencoded counts the records Encode would have to marshal.
func unencoded(f *core.Function) (n int) {
	for _, pr := range f.Records() {
		if pr.Record.Encoding() == nil {
			n++
		}
	}
	return n
}

// TestEncodeMarshalsOnlyNewRecords: a version that differs from an encoded
// one in one entry and the re-dated root has exactly two records without
// memoised bytes, across Clone, Assign and the copy-on-write map copy; and
// decoding never fills a memo.
func TestEncodeMarshalsOnlyNewRecords(t *testing.T) {
	var files []string
	for i := 0; i < 40; i++ {
		files = append(files, fmt.Sprintf("/pkg%d/f.txt", i))
	}
	tree := core.MustPathSet(files...)
	// Every citation differs from its canonical form (the date loses its
	// nanoseconds), so Canonical has a second record to derive for each.
	cite := func(tag string) core.Citation {
		return core.Citation{RepoName: tag, Owner: "a<b", CommittedDate: time.Unix(1e9, 5e8), AuthorList: []string{}}
	}
	fn := core.MustNewFunction(core.Citation{RepoName: "proj", Owner: "o", URL: "u", Version: "0"})
	for _, p := range files {
		if err := fn.Add(tree, p, cite(p)); err != nil {
			t.Fatal(err)
		}
	}
	if got := unencoded(fn); got != 41 {
		t.Fatalf("%d of 41 fresh records lack bytes", got)
	}
	data, err := citefile.Encode(fn, tree.IsDir)
	if err != nil {
		t.Fatal(err)
	}
	canon, ok := citefile.Canonical(fn)
	if !ok || unencoded(fn) != 0 || unencoded(canon) != 0 {
		t.Fatalf("after Encode: ok=%v, %d and %d records lack bytes", ok, unencoded(fn), unencoded(canon))
	}
	fn.Assign(canon)

	next := fn.Clone()
	root := next.Root()
	root.CommittedDate = time.Unix(1e9, 0)
	if err := next.Modify("/", root); err != nil {
		t.Fatal(err)
	}
	if err := next.Modify(files[17], cite("edit")); err != nil {
		t.Fatal(err)
	}
	if got := unencoded(next); got != 2 {
		t.Fatalf("a one-entry edit leaves %d records to marshal, want 2 (the entry and the root)", got)
	}
	if _, err := citefile.Encode(next, tree.IsDir); err != nil {
		t.Fatal(err)
	}
	if unencoded(fn) != 0 || unencoded(next) != 0 {
		t.Fatal("records lost their bytes")
	}

	decoded, err := citefile.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := unencoded(decoded); got != 41 {
		t.Fatalf("Decode filled %d memos; it must fill none", 41-got)
	}
	// A decoded function's records are already canonical: encoding it makes
	// no second copy of any of them.
	if _, err := citefile.Encode(decoded, tree.IsDir); err != nil {
		t.Fatal(err)
	}
	again, ok := citefile.Canonical(decoded)
	if !ok {
		t.Fatal("decoded function has no canonical form")
	}
	before, after := decoded.Records(), again.Records()
	for i := range before {
		if before[i].Record != after[i].Record {
			t.Fatalf("%s: the canonical form of a decoded record is a different record", before[i].Path)
		}
	}
}

// TestEncodeKeyFollowsTheTree: the trailing slash is decided per call, not
// memoised with the entry — the same records encode under a file key in one
// version and a directory key in the next.
func TestEncodeKeyFollowsTheTree(t *testing.T) {
	fn := core.MustNewFunction(core.Citation{RepoName: "proj", Owner: "o", URL: "u", Version: "0"})
	asFile, asDir := core.MustPathSet("/x"), core.MustPathSet("/x/y.txt")
	if err := fn.Add(asFile, "/x", core.Citation{Note: "n"}); err != nil {
		t.Fatal(err)
	}
	for i, tree := range []*core.PathSet{asFile, asDir, asFile} {
		data, err := citefile.Encode(fn, tree.IsDir)
		if err != nil {
			t.Fatal(err)
		}
		if wantDir := i == 1; strings.Contains(string(data), `"/x/":`) != wantDir {
			t.Fatalf("round %d: directory key = %v, want %v\n%s", i, !wantDir, wantDir, data)
		}
	}
}

// TestCanonicalRefusesWhatDecodeRefuses covers the files Encode can write
// and Decode cannot read back to the same function.
func TestCanonicalRefusesWhatDecodeRefuses(t *testing.T) {
	root := core.Citation{RepoName: "proj", Owner: "o", URL: "u", Version: "0"}
	cases := map[string]func(*core.Function, *core.PathSet) error{
		// A date RFC 3339 cannot carry: the entry's bytes do not parse.
		"unparseable date": func(f *core.Function, t *core.PathSet) error {
			return f.Add(t, "/a", core.Citation{CommittedDate: time.Date(12000, 1, 1, 0, 0, 0, 0, time.UTC)})
		},
		// Only a sub-second date: non-empty in memory, empty once encoded.
		"canonically empty": func(f *core.Function, t *core.PathSet) error {
			return f.Add(t, "/a", core.Citation{CommittedDate: time.Date(1, 1, 1, 0, 0, 0, 5, time.UTC)})
		},
		// JSON replaces the invalid byte in the key: Decode keys the entry
		// elsewhere.
		"key not UTF-8": func(f *core.Function, _ *core.PathSet) error {
			return f.Add(core.MustPathSet("/b\xff"), "/b\xff", core.Citation{Note: "n"})
		},
	}
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fn, tree := core.MustNewFunction(root), core.MustPathSet("/a")
		if err := cases[name](fn, tree); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		data, err := citefile.Encode(fn, nil)
		if err != nil {
			t.Fatalf("%s: Encode: %v", name, err)
		}
		if want, _ := citefile.OracleEncode(fn, nil); !bytes.Equal(data, want) {
			t.Errorf("%s: Encode differs from the from-scratch encoder", name)
		}
		if _, ok := citefile.Canonical(fn); ok {
			decoded, err := citefile.Decode(data)
			t.Errorf("%s: Canonical ok, but Decode gives %v, %v", name, decoded, err)
		}
	}
}
