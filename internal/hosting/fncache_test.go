package hosting

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/gitcite/gitcite/internal/citefile"
	"github.com/gitcite/gitcite/internal/core"
	"github.com/gitcite/gitcite/internal/gitcite"
	"github.com/gitcite/gitcite/internal/vcs"
	"github.com/gitcite/gitcite/internal/vcs/object"
	"github.com/gitcite/gitcite/internal/vcs/refs"
	"github.com/gitcite/gitcite/internal/vcs/store"
)

func citeOf(owner string) core.Citation {
	return core.Citation{Owner: owner, RepoName: "ext-" + owner, URL: "https://x/" + owner, Version: "1", AuthorList: []string{owner}}
}

// TestGenCiteUnderEvictionMatchesColdDecode is the shared function cache's
// property on a platform that keeps one repository open: two repositories
// and a fork of one, read at random versions and paths while every switch
// of repository closes the previous handle and the cache's generations
// rotate at random. Every GenCite answers what resolving through a cold
// citefile.Decode of the version's stored file gives.
func TestGenCiteUnderEvictionMatchesColdDecode(t *testing.T) {
	ctx := context.Background()
	p, err := OpenPlatform(t.TempDir(), WithOpenRepoLimit(1))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	alice, err := p.CreateUser(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	bob, err := p.CreateUser(ctx, "bob")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(30))
	type version struct {
		owner, name string
		commit      object.ID
		cold        *core.Function
	}
	var versions []version
	files := []string{"/src/a.go", "/src/deep/b.go", "/docs/readme.md"}
	cited := []string{"/src", "/src/a.go", "/src/deep", "/docs", "/"}
	paths := append([]string{"/", "/src", "/src/deep", "/docs", "/missing/x"}, files...)
	clock := int64(1000)
	// build commits n versions to owner/name through a pinned handle (an
	// unpinned one may be closed by the next open) and records each
	// version with the cold decode of its stored file.
	build := func(u *User, owner, name string, n int) {
		t.Helper()
		repo, release, err := p.AcquireForWrite(ctx, u, owner, name)
		if err != nil {
			t.Fatal(err)
		}
		defer release()
		for i := 0; i < n; i++ {
			wt, err := repo.Checkout("main")
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range files {
				if err := wt.WriteFile(f, []byte(fmt.Sprint(name, i, f))); err != nil {
					t.Fatal(err)
				}
			}
			for k := 0; k < 2; k++ {
				c := citeOf(fmt.Sprint(name, "-", i, "-", k))
				if err := wt.Function().Set(wt.Tree(), cited[rng.Intn(len(cited)-1)], c); err != nil {
					t.Fatal(err)
				}
			}
			clock++
			id, err := wt.Commit(vcs.CommitOptions{Author: vcs.Sig(u.Name, "x@x", time.Unix(clock, 0)), Message: "v"})
			if err != nil {
				t.Fatal(err)
			}
			versions = append(versions, version{owner: owner, name: name, commit: id})
		}
	}
	if _, err := p.CreateRepoAs(ctx, alice, "a", "https://x/a", "MIT"); err != nil {
		t.Fatal(err)
	}
	build(alice, "alice", "a", 5)
	if _, err := p.CreateRepoAs(ctx, alice, "b", "https://x/b", "MIT"); err != nil {
		t.Fatal(err)
	}
	build(alice, "alice", "b", 5)
	if _, err := p.ForkRepoAs(ctx, bob, "alice", "a", "fa"); err != nil {
		t.Fatal(err)
	}
	for _, v := range versions[:5] {
		versions = append(versions, version{owner: "bob", name: "fa", commit: v.commit})
	}
	build(bob, "bob", "fa", 3)

	for i := range versions {
		v := &versions[i]
		repo, release, err := p.AcquireRepo(ctx, v.owner, v.name)
		if err != nil {
			t.Fatal(err)
		}
		data, err := repo.CiteFileBytes(v.commit)
		release()
		if err != nil {
			t.Fatal(err)
		}
		if v.cold, err = citefile.Decode(data); err != nil {
			t.Fatal(err)
		}
	}

	functionAt := func(owner, name string, id object.ID) *core.Function {
		t.Helper()
		repo, release, err := p.AcquireRepo(ctx, owner, name)
		if err != nil {
			t.Fatal(err)
		}
		defer release()
		fn, err := repo.ResolvedFunctionAt(id)
		if err != nil {
			t.Fatal(err)
		}
		return fn
	}
	// The fork reads its parent's versions from the entries the parent's
	// reads left, across the eviction between the two.
	shared := versions[0].commit
	if functionAt("alice", "a", shared) != functionAt("bob", "fa", shared) {
		t.Error("a fork decoded its own copy of a version its parent had cached")
	}

	for step := 0; step < 400; step++ {
		switch rng.Intn(10) {
		case 0:
			p.functions.Rotate()
		case 1:
			p.functions.Rotate()
			p.functions.Rotate()
		default:
			v := versions[rng.Intn(len(versions))]
			path := paths[rng.Intn(len(paths))]
			repo, release, err := p.AcquireRepo(ctx, v.owner, v.name)
			if err != nil {
				t.Fatal(err)
			}
			got, from, err := repo.Generate(v.commit, path)
			release()
			if err != nil {
				t.Fatalf("step %d: %s/%s@%s %s: %v", step, v.owner, v.name, v.commit.Short(), path, err)
			}
			want, wantFrom, err := v.cold.Resolve(path)
			if err != nil {
				t.Fatal(err)
			}
			if wantFrom == "/" && want.CommitID == "" {
				want.CommitID = v.commit.Short()
			}
			if from != wantFrom || !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: %s/%s@%s %s = %+v from %q, cold decode %+v from %q",
					step, v.owner, v.name, v.commit.Short(), path, got, from, want, wantFrom)
			}
		}
	}
	if n := p.OpenRepoCount(); n > 1 {
		t.Errorf("%d repositories open, limit 1", n)
	}
}

// countingStore counts the reads that reach the store below the
// decoded-object cache.
type countingStore struct {
	store.Store
	gets *atomic.Int64
}

func (c *countingStore) Get(id object.ID) (object.Object, error) {
	c.gets.Add(1)
	return c.Store.Get(id)
}

func (c *countingStore) Close() error { return c.Store.(io.Closer).Close() }

// TestReopenedCiteReadsOnlyTheCommit pins what the shared function cache
// saves a reopened repository: with one repository open at a time, reading
// A at a version, then B, then A at the same version again reopens A with a
// cold object cache, and the third read reaches the pack store once — for
// the commit, which proves the version is A's. The tree, the citation.cite
// blob and its decode come from the platform's cache.
func TestReopenedCiteReadsOnlyTheCommit(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	var gets atomic.Int64
	p, err := OpenPlatform(dir, WithOpenRepoLimit(1), WithRepoFactory(func(meta gitcite.Meta) (*gitcite.Repo, error) {
		root := filepath.Join(dir, meta.Owner, meta.Name)
		pack, err := store.NewPackStore(filepath.Join(root, "objects"))
		if err != nil {
			return nil, err
		}
		rs, err := refs.NewFileStore(root)
		if err != nil {
			pack.Close()
			return nil, err
		}
		objects := store.NewCachedStore(&countingStore{Store: pack, gets: &gets}, 4096)
		return &gitcite.Repo{VCS: &vcs.Repository{Objects: objects, Refs: rs}, Meta: meta}, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	alice, err := p.CreateUser(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	tips := map[string]object.ID{}
	for _, name := range []string{"a", "b"} {
		if _, err := p.CreateRepoAs(ctx, alice, name, "https://x/"+name, "MIT"); err != nil {
			t.Fatal(err)
		}
		repo, release, err := p.AcquireForWrite(ctx, alice, "alice", name)
		if err != nil {
			t.Fatal(err)
		}
		wt, err := repo.Checkout("main")
		if err != nil {
			t.Fatal(err)
		}
		if err := wt.WriteFile("/pkg/f.txt", []byte(name)); err != nil {
			t.Fatal(err)
		}
		if err := wt.AddCite("/pkg", citeOf(name)); err != nil {
			t.Fatal(err)
		}
		if tips[name], err = wt.Commit(vcs.CommitOptions{Author: testSig(1), Message: "v"}); err != nil {
			t.Fatal(err)
		}
		release()
	}
	srv := httptest.NewServer(NewServer(p))
	defer srv.Close()
	read := func(name string) int64 {
		t.Helper()
		before := gets.Load()
		resp, err := http.Get(fmt.Sprintf("%s/api/v1/repos/alice/%s/cite/%s?path=/pkg/f.txt", srv.URL, name, tips[name]))
		if err != nil {
			t.Fatal(err)
		}
		var body CiteResponse
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || body.From != "/pkg" {
			t.Fatalf("cite %s: status %d, from %q (%v)", name, resp.StatusCode, body.From, err)
		}
		return gets.Load() - before
	}
	read("a")
	read("b")
	if n := read("a"); n != 1 {
		t.Errorf("reopened cite reached the pack store %d times, want 1 (the commit)", n)
	}
}

// failingStore fails Get of the objects in fail, as a store with an I/O
// error or a corrupt record does.
type failingStore struct {
	store.Store
	mu   sync.Mutex
	fail map[object.ID]bool
}

var errInjectedRead = errors.New("injected read failure")

func (s *failingStore) Get(id object.ID) (object.Object, error) {
	s.mu.Lock()
	fail := s.fail[id]
	s.mu.Unlock()
	if fail {
		return nil, errInjectedRead
	}
	return s.Store.Get(id)
}

func (s *failingStore) failGets(ids ...object.ID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fail = map[object.ID]bool{}
	for _, id := range ids {
		s.fail[id] = true
	}
}

// TestEditCiteReadErrorIsServerError: when the store cannot read a
// version's citation.cite, the hosted edit fails with 500 and commits
// nothing, reads answer 500 rather than 404, and once the store reads again
// the citations are all there.
func TestEditCiteReadErrorIsServerError(t *testing.T) {
	ctx := context.Background()
	objects := &failingStore{Store: store.NewMemoryStore()}
	p := NewPlatform(WithRepoFactory(func(meta gitcite.Meta) (*gitcite.Repo, error) {
		return &gitcite.Repo{VCS: &vcs.Repository{Objects: objects, Refs: refs.NewMemoryStore()}, Meta: meta}, nil
	}))
	alice, err := p.CreateUser(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	repo, err := p.CreateRepoAs(ctx, alice, "r", "https://x/r", "MIT")
	if err != nil {
		t.Fatal(err)
	}
	wt, err := repo.Checkout("main")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"/lib/a.go", "/lib/b.go"} {
		if err := wt.WriteFile(f, []byte(f)); err != nil {
			t.Fatal(err)
		}
	}
	if err := wt.AddCite("/lib", citeOf("upstream")); err != nil {
		t.Fatal(err)
	}
	c1, err := wt.Commit(vcs.CommitOptions{Author: testSig(1), Message: "v1"})
	if err != nil {
		t.Fatal(err)
	}
	tree, _ := repo.VCS.TreeOf(c1)
	entry, err := vcs.LookupPath(objects, tree, citefile.Path)
	if err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(NewServer(p))
	defer srv.Close()
	do := func(method, path, body string) int {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer "+alice.Token)
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	edit := `{"branch":"main","path":"/lib/a.go","citation":{"owner":"alice","repoName":"a","url":"u"}}`

	p.functions.Rotate()
	p.functions.Rotate()
	objects.failGets(entry.ID)
	if got := do(http.MethodPost, "/api/v1/repos/alice/r/cite", edit); got != http.StatusInternalServerError {
		t.Errorf("edit over an unreadable citation.cite: status %d, want 500", got)
	}
	for _, read := range []string{"/api/v1/repos/alice/r/cite/main?path=/lib/b.go", "/api/v1/repos/alice/r/citefile/main"} {
		if got := do(http.MethodGet, read, ""); got != http.StatusInternalServerError {
			t.Errorf("GET %s over an unreadable citation.cite: status %d, want 500", read, got)
		}
	}
	if tip, err := repo.VCS.BranchTip("main"); err != nil || tip != c1 {
		t.Fatalf("the failed edit moved main to %s (%v)", tip.Short(), err)
	}

	objects.failGets()
	if got := do(http.MethodPost, "/api/v1/repos/alice/r/cite", edit); got != http.StatusOK {
		t.Fatalf("edit once the store reads again: status %d", got)
	}
	tip, err := repo.VCS.BranchTip("main")
	if err != nil {
		t.Fatal(err)
	}
	for path, wantFrom := range map[string]string{"/lib/a.go": "/lib/a.go", "/lib/b.go": "/lib"} {
		if _, from, err := repo.Generate(tip, path); err != nil || from != wantFrom {
			t.Errorf("%s after the edit: from %q (%v), want %q", path, from, err, wantFrom)
		}
	}
}
