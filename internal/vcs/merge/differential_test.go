package merge

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/gitcite/gitcite/internal/vcs"
	"github.com/gitcite/gitcite/internal/vcs/object"
	"github.com/gitcite/gitcite/internal/vcs/store"
)

// mutate derives one side of a three-way history from base: a handful of
// edits drawn from everything the per-file rules distinguish — content and
// mode-only changes, deletions of files and of whole directories, additions
// (from a small pool of names and contents, so both sides often add the same
// path, identically or not), a file replaced by a directory and a directory
// by a file.
func mutate(rng *rand.Rand, base map[string]vcs.FileContent) map[string]vcs.FileContent {
	out := make(map[string]vcs.FileContent, len(base))
	for p, f := range base {
		out[p] = f
	}
	paths := vcs.SortedPaths(out)
	pick := func() string { return paths[rng.Intn(len(paths))] }
	content := func() []byte { return []byte(fmt.Sprintf("content %d\n", rng.Intn(3))) }
	for n := rng.Intn(6); n > 0 && len(paths) > 0; n-- {
		switch p := pick(); rng.Intn(7) {
		case 0:
			out[p] = vcs.FileContent{Data: content(), Mode: out[p].Mode}
		case 1:
			out[p] = vcs.FileContent{Data: out[p].Data, Mode: object.ModeExecutable}
		case 2:
			delete(out, p)
		case 3: // the whole directory holding p
			dir := vcs.ParentPath(p)
			for q := range out {
				if dir != "/" && vcs.IsAncestorPath(dir, q) {
					delete(out, q)
				}
			}
		case 4:
			out[fmt.Sprintf("/d%d/e%d/new%d.txt", rng.Intn(3), rng.Intn(2), rng.Intn(2))] = vcs.FileContent{Data: content()}
			out[fmt.Sprintf("/top%d.txt", rng.Intn(2))] = vcs.FileContent{Data: content()}
		case 5: // file → directory
			if _, ok := out[p]; ok {
				delete(out, p)
				out[p+"/inside.txt"] = vcs.FileContent{Data: content()}
			}
		case 6: // directory → file
			if dir := vcs.ParentPath(p); dir != "/" {
				for q := range out {
					if vcs.IsAncestorPath(dir, q) {
						delete(out, q)
					}
				}
				out[dir] = vcs.FileContent{Data: content()}
			}
		}
	}
	return out
}

// TestTreesMatchesFlattenImplementation: on random three-way histories the
// tree-level merge returns what the flatten-everything implementation
// returns — the same tree ID, the same conflicts in the same order, the same
// deleted paths, or an error where it errs — under every resolution, and
// asks the resolver about the same conflicts in the same order.
func TestTreesMatchesFlattenImplementation(t *testing.T) {
	resolvers := map[string]func(*rand.Rand) func(Conflict) Resolution{
		"none":   func(*rand.Rand) func(Conflict) Resolution { return nil },
		"ours":   func(*rand.Rand) func(Conflict) Resolution { return func(Conflict) Resolution { return ResolveOurs } },
		"theirs": func(*rand.Rand) func(Conflict) Resolution { return func(Conflict) Resolution { return ResolveTheirs } },
		"concat": func(*rand.Rand) func(Conflict) Resolution { return func(Conflict) Resolution { return ResolveConcat } },
		"mixed": func(rng *rand.Rand) func(Conflict) Resolution {
			return func(Conflict) Resolution { return Resolution(1 + rng.Intn(3)) }
		},
	}
	kinds := map[ConflictKind]int{}
	var clashes, deletions, zeroBases int
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := store.NewMemoryStore()
		files := map[string]vcs.FileContent{}
		for i := rng.Intn(14); i > 0; i-- {
			p := fmt.Sprintf("/d%d/e%d/f%d.txt", rng.Intn(3), rng.Intn(2), rng.Intn(4))
			if rng.Intn(4) == 0 {
				p = fmt.Sprintf("/top%d.txt", rng.Intn(3))
			}
			files[p] = vcs.FileContent{Data: []byte(p)}
		}
		base, err := vcs.BuildTree(s, files)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		side := func() object.ID {
			for { // until the edits leave no path both a file and a directory
				if id, err := vcs.BuildTree(s, mutate(rng, files)); err == nil {
					return id
				}
			}
		}
		ours, theirs := side(), side()
		if rng.Intn(8) == 0 {
			base = object.ZeroID
			zeroBases++
		}
		for name, mk := range resolvers {
			var asked [2][]Conflict
			var results [2]Result
			var errs [2]error
			for i, impl := range []func(store.Store, object.ID, object.ID, object.ID, Options) (Result, error){flattenTrees, Trees} {
				opts := Options{}
				if resolve := mk(rand.New(rand.NewSource(seed))); resolve != nil {
					opts.Resolver = func(c Conflict) Resolution {
						asked[i] = append(asked[i], c)
						return resolve(c)
					}
				}
				results[i], errs[i] = impl(s, base, ours, theirs, opts)
			}
			if (errs[0] == nil) != (errs[1] == nil) {
				t.Fatalf("seed %d %s: flatten err %v, tree-level err %v", seed, name, errs[0], errs[1])
			}
			if !reflect.DeepEqual(asked[0], asked[1]) {
				t.Fatalf("seed %d %s: resolver asked\n  %v\nwant\n  %v", seed, name, asked[1], asked[0])
			}
			if errs[0] != nil {
				clashes++
				continue
			}
			if !reflect.DeepEqual(results[0], results[1]) {
				t.Fatalf("seed %d %s:\n got %+v\nwant %+v", seed, name, results[1], results[0])
			}
			for _, c := range results[0].Conflicts {
				kinds[c.Kind]++
			}
			deletions += len(results[0].DeletedPaths)
		}
	}
	// The generator must have reached every case the rules distinguish.
	for _, k := range []ConflictKind{ConflictBothModified, ConflictModifyDelete, ConflictBothAdded} {
		if kinds[k] == 0 {
			t.Errorf("no %v conflict in any history", k)
		}
	}
	if clashes == 0 || deletions == 0 || zeroBases == 0 {
		t.Errorf("histories had %d file/directory clashes, %d deleted paths, %d zero bases; want some of each", clashes, deletions, zeroBases)
	}
}

// TestTreesConflictOrderIsPathOrder: "/a.txt" sorts before "/a/b" although
// the directory "a" is walked before the file "a.txt".
func TestTreesConflictOrderIsPathOrder(t *testing.T) {
	s := store.NewMemoryStore()
	side := func(v string) object.ID {
		return buildTree(t, s, map[string]string{"/a/b": v, "/a.txt": v, "/a0": v})
	}
	var asked []string
	res, err := Trees(s, side("base"), side("ours"), side("theirs"), Options{Resolver: func(c Conflict) Resolution {
		asked = append(asked, c.Path)
		return ResolveTheirs
	}})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"/a.txt", "/a/b", "/a0"}
	var got []string
	for _, c := range res.Conflicts {
		got = append(got, c.Path)
	}
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(asked, want) {
		t.Errorf("conflicts %v, resolver asked %v; want both %v", got, asked, want)
	}
}

// countingStore counts the trees and blobs a merge reads.
type countingStore struct {
	store.Store
	trees, blobs int
}

func (c *countingStore) Get(id object.ID) (object.Object, error) {
	o, err := c.Store.Get(id)
	if err == nil {
		switch o.Type() {
		case object.TypeTree:
			c.trees++
		case object.TypeBlob:
			c.blobs++
		}
	}
	return o, err
}

// TestTreesCostFollowsTheDifference: merging two one-file changes in a
// 1 000-file tree reads the directories on the two changed paths, not the
// tree, and no blob at all.
func TestTreesCostFollowsTheDifference(t *testing.T) {
	mem := store.NewMemoryStore()
	files := map[string]string{}
	for i := 0; i < 1000; i++ {
		files[fmt.Sprintf("/d%d/e%d/f%d.txt", i%10, i/10%10, i/100)] = fmt.Sprint(i)
	}
	base := buildTree(t, mem, files)
	files["/d1/e1/f1.txt"] = "ours"
	ours := buildTree(t, mem, files)
	files["/d1/e1/f1.txt"] = "111"
	files["/d2/e2/f2.txt"] = "theirs"
	theirs := buildTree(t, mem, files)

	cs := &countingStore{Store: mem}
	res, err := Trees(cs, base, ours, theirs, Options{})
	if err != nil || len(res.Conflicts) != 0 {
		t.Fatalf("merge: %v, conflicts %v", err, res.Conflicts)
	}
	files["/d1/e1/f1.txt"] = "ours"
	if want := buildTree(t, mem, files); res.TreeID != want {
		t.Fatalf("merged tree %s, want %s", res.TreeID.Short(), want.Short())
	}
	// Three versions of the root and of two directory chains of depth two,
	// read by the walk and again (ours only) by the delta build.
	if cs.blobs != 0 || cs.trees > 24 {
		t.Errorf("merge read %d blobs and %d trees; want 0 and at most 24 of the 111 trees a side has", cs.blobs, cs.trees)
	}
}
