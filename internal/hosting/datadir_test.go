package hosting_test

import (
	"bytes"
	"compress/zlib"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/gitcite/gitcite/internal/core"
	"github.com/gitcite/gitcite/internal/extension"
	"github.com/gitcite/gitcite/internal/format"
	"github.com/gitcite/gitcite/internal/gitcite"
	"github.com/gitcite/gitcite/internal/hosting"
	"github.com/gitcite/gitcite/internal/vcs"
	"github.com/gitcite/gitcite/internal/vcs/object"
	"github.com/gitcite/gitcite/internal/vcs/store"
)

// datadirV1 is a platform data directory written by the code before ref
// files had slots: legacy "<id>\n" refs, both record compressions, a
// live segment journal, a loose object and a fork intent a crash left
// behind. It is frozen; a later layout change adds datadir-v2 instead of
// regenerating it (see its README.md).
const datadirV1 = "testdata/datadir-v1"

// dataDirListing is what a booted platform answers about its data
// directory: every ref of every repository, the closure of its tips, and
// the resolved citation of every path at every version in the listed
// formats (as keys into Renderings, to keep the file small).
type dataDirListing struct {
	Tokens     map[string]string      `json:"tokens"`
	Repos      map[string]repoListing `json:"repos"`
	Renderings map[string]string      `json:"renderings"`
}

type repoListing struct {
	Head     string                         `json:"head"`
	Refs     map[string]string              `json:"refs"`
	Closure  []string                       `json:"closure"`
	Versions map[string]map[string][]string `json:"versions"`
}

var listingFormats = []format.Format{format.FormatText, format.FormatBibTeX, format.FormatCFF, format.FormatRIS}

// listPlatform reads a listing of everything p serves.
func listPlatform(t *testing.T, p *hosting.Platform) dataDirListing {
	t.Helper()
	ctx := context.Background()
	out := dataDirListing{Repos: map[string]repoListing{}, Renderings: map[string]string{}}
	for _, key := range p.ListRepos(ctx) {
		owner, name, _ := strings.Cut(key, "/")
		repo, release, err := p.AcquireRepo(ctx, owner, name)
		if err != nil {
			t.Fatal(err)
		}
		rl := repoListing{Refs: map[string]string{}, Versions: map[string]map[string][]string{}}
		head, err := repo.VCS.Refs.GetHEAD()
		if err != nil {
			t.Fatal(err)
		}
		rl.Head = head.Symbolic
		names, err := repo.VCS.Refs.List()
		if err != nil {
			t.Fatal(err)
		}
		var tips []object.ID
		for _, ref := range names {
			id, err := repo.VCS.Refs.Get(ref)
			if err != nil {
				t.Fatalf("%s %s: %v", key, ref, err)
			}
			rl.Refs[ref] = id.String()
			tips = append(tips, id)
		}
		var commits []object.ID
		err = store.WalkClosure(repo.VCS.Objects, func(id object.ID, o object.Object) error {
			rl.Closure = append(rl.Closure, id.String())
			if _, ok := o.(*object.Commit); ok {
				commits = append(commits, id)
			}
			return nil
		}, tips...)
		if err != nil {
			t.Fatalf("%s closure: %v", key, err)
		}
		sort.Strings(rl.Closure)
		for _, c := range commits {
			tree, err := repo.VCS.TreeOf(c)
			if err != nil {
				t.Fatal(err)
			}
			paths := []string{"/"}
			if err := vcs.WalkTree(repo.VCS.Objects, tree, func(path string, _ object.TreeEntry) error {
				paths = append(paths, path)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			version := map[string][]string{}
			for _, path := range paths {
				cite, _, err := repo.Generate(c, path)
				if err != nil {
					t.Fatalf("%s %s %s: %v", key, c.Short(), path, err)
				}
				for _, f := range listingFormats {
					text, err := format.Render(cite, f)
					if err != nil {
						t.Fatal(err)
					}
					sum := sha256.Sum256([]byte(text))
					k := hex.EncodeToString(sum[:8])
					out.Renderings[k] = text
					version[path] = append(version[path], k)
				}
			}
			rl.Versions[c.String()] = version
		}
		release()
		out.Repos[key] = rl
	}
	return out
}

// copyDir copies a directory tree, so a test never writes to the fixture.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDataDirV1 boots a copy of the frozen datadir-v1 and checks it
// against its listing; pushes one commit, which converts that branch's
// ref file to the slot layout; and checks again after a reopen.
func TestDataDirV1(t *testing.T) {
	ctx := context.Background()
	raw, err := os.ReadFile(filepath.Join(datadirV1, "listing.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want dataDirListing
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "platform")
	copyDir(t, filepath.Join(datadirV1, "platform"), dir)
	mainRef := filepath.Join(dir, "alice", "proj", "refs", "heads", "main")
	if fi, err := os.Stat(mainRef); err != nil || fi.Size() != 65 {
		t.Fatalf("fixture's alice/proj main: %v, %v; want a 65-byte legacy file", fi, err)
	}

	p, err := hosting.OpenPlatform(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := listPlatform(t, p)
	if !reflect.DeepEqual(got.Repos, want.Repos) || !reflect.DeepEqual(got.Renderings, want.Renderings) {
		t.Fatalf("booted platform differs from the listing:\n got %v\nwant %v", got.Repos, want.Repos)
	}
	if _, err := os.Stat(filepath.Join(dir, "carol", "lib")); !os.IsNotExist(err) {
		t.Fatalf("the crashed fork's directory survived boot: %v", err)
	}
	for name, tok := range want.Tokens {
		if u, err := p.Authenticate(ctx, tok); err != nil || u.Name != name {
			t.Fatalf("token of %s: %v, %v", name, u, err)
		}
	}

	// Push one commit to alice/proj main over HTTP.
	ts := httptest.NewServer(hosting.NewServer(p))
	client := extension.New(ts.URL, want.Tokens["alice"])
	local, err := client.Clone("alice", "proj", "main")
	if err != nil {
		t.Fatal(err)
	}
	wt, err := local.Checkout("main")
	if err != nil {
		t.Fatal(err)
	}
	if err := wt.WriteFile("/pushed.txt", []byte("after the slot layout\n")); err != nil {
		t.Fatal(err)
	}
	pushed, err := wt.Commit(vcs.CommitOptions{Author: vcs.Sig("alice", "alice@x", time.Unix(1_600_000_100, 0)), Message: "push"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Sync(local, "alice", "proj", "main"); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	afterPush := listPlatform(t, p)
	proj, wantProj := afterPush.Repos["alice/proj"], want.Repos["alice/proj"]
	if proj.Refs["refs/heads/main"] != pushed.String() {
		t.Fatalf("main after the push = %s, want %s", proj.Refs["refs/heads/main"], pushed)
	}
	for ref, id := range wantProj.Refs {
		if ref != "refs/heads/main" && proj.Refs[ref] != id {
			t.Fatalf("%s moved in the push: %s -> %s", ref, id, proj.Refs[ref])
		}
	}
	for c, paths := range wantProj.Versions {
		if !reflect.DeepEqual(proj.Versions[c], paths) {
			t.Fatalf("version %s of alice/proj answers differently after the push", c)
		}
	}
	for key, rl := range want.Repos {
		if key != "alice/proj" && !reflect.DeepEqual(afterPush.Repos[key], rl) {
			t.Fatalf("%s changed in a push to alice/proj", key)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p, err = hosting.OpenPlatform(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if reopened := listPlatform(t, p); !reflect.DeepEqual(reopened, afterPush) {
		t.Fatalf("reopen differs from the platform before it:\n got %v\nwant %v", reopened.Repos, afterPush.Repos)
	}
	data, err := os.ReadFile(mainRef)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 182 || data[90] != '\n' || data[181] != '\n' || !strings.Contains(string(data), " "+pushed.String()+" ") {
		t.Fatalf("alice/proj main after the push is not in the slot layout: %q", data)
	}
	dev, err := os.ReadFile(filepath.Join(dir, "alice", "proj", "refs", "heads", "dev"))
	if err != nil || string(dev) != wantProj.Refs["refs/heads/dev"]+"\n" {
		t.Fatalf("a ref nothing moved was rewritten: %q, %v", dev, err)
	}
}

// TestGenerateDataDirV1 writes a platform data directory and its listing
// under $GEN_DATADIR_V1. datadir-v1 was made by running it on the code
// before the ref-file slots; see testdata/datadir-v1/README.md.
func TestGenerateDataDirV1(t *testing.T) {
	out := os.Getenv("GEN_DATADIR_V1")
	if out == "" {
		t.Skip("fixture generator; set GEN_DATADIR_V1=<dir> to write a data directory")
	}
	ctx := context.Background()
	dir := filepath.Join(out, "platform")
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("%s exists; the generator writes only fresh directories", dir)
	}
	sig := func(name string, n int64) vcs.CommitOptions {
		return vcs.CommitOptions{Author: vcs.Sig(name, name+"@x", time.Unix(1_600_000_000+n, 0)), Message: "version " + name}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	write := func(wt *gitcite.Worktree, files map[string]string) {
		t.Helper()
		for path, content := range files {
			must(wt.WriteFile(path, []byte(content)))
		}
	}
	commit := func(wt *gitcite.Worktree, name string, n int64) object.ID {
		t.Helper()
		id, err := wt.Commit(sig(name, n))
		must(err)
		return id
	}
	extCite := func(owner string) core.Citation {
		return core.Citation{Owner: owner, RepoName: "ext-" + owner, URL: "https://git.example/" + owner + "/ext",
			Version: "2.1", AuthorList: []string{owner, "co-" + owner}}
	}

	// First session: users, two repositories, a member, branches, a tag.
	p, err := hosting.OpenPlatform(dir)
	must(err)
	alice, err := p.CreateUser(ctx, "alice")
	must(err)
	bob, err := p.CreateUser(ctx, "bob")
	must(err)
	carol, err := p.CreateUser(ctx, "carol")
	must(err)
	proj, err := p.CreateRepoAs(ctx, alice, "proj", "https://git.example/alice/proj", "MIT")
	must(err)
	must(p.AddMemberAs(ctx, alice, "alice", "proj", "carol"))
	wt, err := proj.Checkout("main")
	must(err)
	write(wt, map[string]string{"/README.md": "# proj\n", "/src/main.go": "package main\n", "/vendor/lib/lib.go": "package lib\n"})
	commit(wt, "alice", 1)
	must(wt.AddCite("/vendor/lib", extCite("dana")))
	v2 := commit(wt, "alice", 2)
	must(proj.VCS.CreateTag("v1.0", v2))
	must(proj.VCS.CreateBranch("dev", v2))
	dev, err := proj.Checkout("dev")
	must(err)
	write(dev, map[string]string{"/src/dev.go": "package main // dev\n"})
	must(dev.AddCite("/src/dev.go", extCite("erin")))
	commit(dev, "carol", 3)
	lib, err := p.CreateRepoAs(ctx, bob, "lib", "https://git.example/bob/lib", "Apache-2.0")
	must(err)
	lwt, err := lib.Checkout("main")
	must(err)
	write(lwt, map[string]string{"/lib.go": "package lib\n", "/doc/guide.md": "guide\n"})
	must(lwt.AddCite("/doc", extCite("frank")))
	commit(lwt, "bob", 4)
	must(p.Close())

	// Second session: a committed fork, commits into fresh packs whose
	// segment journals stay live, a loose object, and a fork that crashes
	// after its copy. The platform is abandoned, not closed: a kill -9.
	p, err = hosting.OpenPlatform(dir)
	must(err)
	bobAgain, err := p.Authenticate(ctx, bob.Token)
	must(err)
	_, err = p.ForkRepoAs(ctx, bobAgain, "alice", "proj", "proj")
	must(err)
	proj, release, err := p.AcquireRepo(ctx, "alice", "proj")
	must(err)
	wt, err = proj.Checkout("main")
	must(err)
	write(wt, map[string]string{"/README.md": "# proj\n\nNow with docs.\n"})
	must(wt.DelCite("/vendor/lib"))
	must(wt.AddCite("/vendor", extCite("dana")))
	commit(wt, "alice", 5)
	release()
	// One object in the legacy loose layout: a zlib file at objects/ab/cdef….
	enc := object.Encode(object.NewBlobString("stored loose\n"))
	looseID := object.HashBytes(enc).String()
	var z bytes.Buffer
	zw := zlib.NewWriter(&z)
	_, err = zw.Write(enc)
	must(err)
	must(zw.Close())
	fan := filepath.Join(dir, "bob", "lib", "objects", looseID[:2])
	must(os.MkdirAll(fan, 0o755))
	must(os.WriteFile(filepath.Join(fan, looseID[2:]), z.Bytes(), 0o644))
	lib, release, err = p.AcquireRepo(ctx, "bob", "lib")
	must(err)
	lwt, err = lib.Checkout("main")
	must(err)
	write(lwt, map[string]string{"/loose.txt": "stored loose\n"})
	commit(lwt, "bob", 6)
	release()
	carolAgain, err := p.Authenticate(ctx, carol.Token)
	must(err)
	hosting.SetForkCrashPoint("copied")
	_, err = p.ForkRepoAs(ctx, carolAgain, "bob", "lib", "lib")
	hosting.SetForkCrashPoint("")
	if err == nil {
		t.Fatal("the fork crash point did not fire")
	}

	// The listing is what a boot of a copy answers.
	booted := filepath.Join(t.TempDir(), "platform")
	copyDir(t, dir, booted)
	bp, err := hosting.OpenPlatform(booted)
	must(err)
	listing := listPlatform(t, bp)
	must(bp.Close())
	listing.Tokens = map[string]string{"alice": alice.Token, "bob": bob.Token, "carol": carol.Token}
	data, err := json.MarshalIndent(listing, "", " ")
	must(err)
	must(os.WriteFile(filepath.Join(out, "listing.json"), append(data, '\n'), 0o644))
}

// TestDataDirV1CodeOnlyCommits commits twice to a copy of datadir-v1 on
// top of a version whose citation.cite still dates its root, changing
// nothing but a file each time: the first commit rewrites citation.cite,
// once, to leave the date to the commit, and the second keeps that file.
// Every format of every root answer at both commits carries that commit's
// own date — the citation the stamped file would have given.
func TestDataDirV1CodeOnlyCommits(t *testing.T) {
	ctx := context.Background()
	dir := filepath.Join(t.TempDir(), "platform")
	copyDir(t, filepath.Join(datadirV1, "platform"), dir)
	p, err := hosting.OpenPlatform(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	repo, release, err := p.AcquireRepo(ctx, "alice", "proj")
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	citeBlob := func(commit object.ID) object.ID {
		t.Helper()
		tree, err := repo.VCS.TreeOf(commit)
		if err != nil {
			t.Fatal(err)
		}
		e, err := vcs.LookupPath(repo.VCS.Objects, tree, "/citation.cite")
		if err != nil {
			t.Fatal(err)
		}
		return e.ID
	}
	stamped, err := repo.VCS.BranchTip("main")
	if err != nil {
		t.Fatal(err)
	}
	if raw, err := repo.CiteFileBytes(stamped); err != nil || !strings.Contains(string(raw), "committedDate") {
		t.Fatalf("the fixture's main does not carry a stamped root: %v\n%s", err, raw)
	}
	// /README.md resolves to the root at every version of the fixture.
	before, from, err := repo.Generate(stamped, "/README.md")
	if err != nil || from != "/" {
		t.Fatalf("fixture /README.md: from %q, %v", from, err)
	}

	wt, err := repo.Checkout("main")
	if err != nil {
		t.Fatal(err)
	}
	parent := stamped
	for i, when := range []time.Time{time.Unix(1_700_000_000, 0), time.Unix(1_700_200_000, 0)} {
		if err := wt.WriteFile("/src/main.go", []byte(fmt.Sprintf("package main // %d\n", i))); err != nil {
			t.Fatal(err)
		}
		id, err := wt.Commit(vcs.CommitOptions{Author: vcs.Sig("alice", "alice@x", when), Message: "code only"})
		if err != nil {
			t.Fatal(err)
		}
		if rewrote := citeBlob(id) != citeBlob(parent); rewrote != (i == 0) {
			t.Fatalf("commit %d rewrote citation.cite: %v, want %v", i, rewrote, i == 0)
		}
		got, from, err := repo.Generate(id, "/README.md")
		if err != nil || from != "/" {
			t.Fatalf("commit %d /README.md: from %q, %v", i, from, err)
		}
		want := before
		want.CommittedDate, want.CommitID = when.UTC(), id.Short()
		for _, f := range listingFormats {
			text, err := format.Render(got, f)
			if err != nil {
				t.Fatal(err)
			}
			wantText, err := format.Render(want, f)
			if err != nil {
				t.Fatal(err)
			}
			day := when.UTC().Format("2006-01-02")
			if text != wantText || !(strings.Contains(text, day) || strings.Contains(text, strings.ReplaceAll(day, "-", "/"))) {
				t.Errorf("commit %d %s:\n%s\nwant the stamped version's citation dated %s:\n%s", i, f, text, day, wantText)
			}
		}
		parent = id
	}
}
