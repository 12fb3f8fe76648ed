// Package gitcite is the integration layer of the system — the core of the
// paper's "local executable tool" (§3). It binds the citation model
// (internal/core) to the version-control substrate (internal/vcs) through
// the citation.cite file stored at the root of every version
// (internal/citefile), and implements the citation-extended operations:
// commits that carry citations through file renames and deletions, MergeCite,
// CopyCite and ForkCite.
package gitcite

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"github.com/gitcite/gitcite/internal/citefile"
	"github.com/gitcite/gitcite/internal/core"
	"github.com/gitcite/gitcite/internal/vcs"
	"github.com/gitcite/gitcite/internal/vcs/object"
	"github.com/gitcite/gitcite/internal/vcs/store"
)

// Meta is the repository-level metadata that seeds default root citations —
// "the owner and name of the repository, the http address" (paper §2).
type Meta struct {
	Owner   string
	Name    string
	URL     string
	License string
}

// Validate checks the fields needed to build a root citation.
func (m Meta) Validate() error {
	var missing []string
	if m.Owner == "" {
		missing = append(missing, "owner")
	}
	if m.Name == "" {
		missing = append(missing, "name")
	}
	if len(missing) > 0 {
		return fmt.Errorf("gitcite: repository metadata missing %s", strings.Join(missing, ", "))
	}
	return nil
}

// Repo is a citation-enabled repository: a vcs repository whose versions
// each carry a citation.cite file. It is safe for concurrent use: read
// operations (Generate, GenerateChain, ResolvedFunctionAt, TreeAt) may run
// in parallel with each other and with commits.
type Repo struct {
	VCS  *vcs.Repository
	Meta Meta

	// functions is the decoded-function cache (see FunctionCache): every
	// reader of a version shares one decoded Function. Set by
	// ShareFunctionCache, else created on first use, so a Repo built as a
	// struct literal works too.
	functions atomic.Pointer[FunctionCache]

	// paths is a path table no read path uses: it stays only because
	// benchmark/probes.go interns through Paths to time
	// core.Function.ResolveKey, and goes with that probe.
	paths core.PathTable
}

// Paths returns the repository's interned path table (see the paths field).
func (r *Repo) Paths() *core.PathTable { return &r.paths }

// ShareFunctionCache makes the repository read and seed decoded citation
// functions through c, which other repositories may share: entries are keyed
// by root tree, so a version decoded through any of them serves them all. A
// hosting platform shares one cache among every repository it opens, which
// is what lets a repository closed by the open-handle LRU come back with its
// versions decoded.
func (r *Repo) ShareFunctionCache(c *FunctionCache) { r.functions.Store(c) }

// functionCache returns the repository's function cache, creating a private
// one on first use.
func (r *Repo) functionCache() *FunctionCache {
	if c := r.functions.Load(); c != nil {
		return c
	}
	r.functions.CompareAndSwap(nil, new(FunctionCache))
	return r.functions.Load()
}

// NewMemoryRepo creates an empty citation-enabled repository in memory.
func NewMemoryRepo(meta Meta) (*Repo, error) {
	if err := meta.Validate(); err != nil {
		return nil, err
	}
	return &Repo{VCS: vcs.NewMemoryRepository(), Meta: meta}, nil
}

// OpenFileRepo opens (creating if needed) a repository persisted under dir.
func OpenFileRepo(dir string, meta Meta) (*Repo, error) {
	if err := meta.Validate(); err != nil {
		return nil, err
	}
	r, err := vcs.OpenFileRepository(dir)
	if err != nil {
		return nil, err
	}
	return &Repo{VCS: r, Meta: meta}, nil
}

// OpenPackedFileRepo opens (creating if needed) a repository persisted
// under dir with pack-based object storage (append-only pack files plus a
// sorted fan-out ID index; see store.PackStore). Loose objects from a
// previous loose-layout open stay readable; VCS.Repack folds them in.
func OpenPackedFileRepo(dir string, meta Meta) (*Repo, error) {
	if err := meta.Validate(); err != nil {
		return nil, err
	}
	r, err := vcs.OpenPackedFileRepository(dir)
	if err != nil {
		return nil, err
	}
	return &Repo{VCS: r, Meta: meta}, nil
}

// Close releases the repository's backing storage (vcs.Repository.Close →
// store close chain): pack file handles for pack-backed repositories,
// nothing for memory or loose layouts. The Repo must not be used after
// Close. Hosting platforms close evicted idle repositories through this so
// file descriptors and memory stay bounded however many repositories they
// host; the CLI closes after maintenance commands like repack.
func (r *Repo) Close() error {
	if r == nil || r.VCS == nil {
		return nil
	}
	return r.VCS.Close()
}

// UnreleasedVersion marks the root citation of a working copy that has not
// been committed yet; Commit replaces it with the version's real date.
const UnreleasedVersion = "unreleased"

// DefaultRootCitation builds the default citation attached to every version
// root, from repository metadata plus (optionally) the version's commit
// date. With a zero time the citation is marked UnreleasedVersion so it
// still satisfies the paper's root requirements.
func (r *Repo) DefaultRootCitation(authors []string, when time.Time) core.Citation {
	url := r.Meta.URL
	if url == "" {
		url = "https://git.example/" + r.Meta.Owner + "/" + r.Meta.Name
	}
	if len(authors) == 0 {
		authors = []string{r.Meta.Owner}
	}
	c := core.Citation{
		RepoName:   r.Meta.Name,
		Owner:      r.Meta.Owner,
		URL:        url,
		License:    r.Meta.License,
		AuthorList: append([]string(nil), authors...),
	}
	if when.IsZero() {
		c.Version = UnreleasedVersion
	} else {
		c.CommittedDate = when.UTC().Truncate(time.Second)
	}
	return c
}

// treeAdapter exposes a stored vcs tree as a core.Tree, hiding the
// citation.cite file itself (the citation function never cites it).
type treeAdapter struct {
	objects store.Store
	treeID  object.ID
}

// TreeAt returns a core.Tree view of a commit's file tree (without the
// citation file).
func (r *Repo) TreeAt(commitID object.ID) (core.Tree, error) {
	treeID, err := r.VCS.TreeOf(commitID)
	if err != nil {
		return nil, err
	}
	return treeAdapter{objects: r.VCS.Objects, treeID: treeID}, nil
}

func (t treeAdapter) Exists(path string) bool {
	if path == citefile.Path {
		return false
	}
	return vcs.PathExists(t.objects, t.treeID, path)
}

func (t treeAdapter) IsDir(path string) bool {
	if path == citefile.Path {
		return false
	}
	e, err := vcs.LookupPath(t.objects, t.treeID, path)
	return err == nil && e.IsDir()
}

// ErrNotCitationEnabled reports a version without a citation.cite file.
var ErrNotCitationEnabled = errors.New("gitcite: version has no citation.cite (not citation-enabled)")

// FunctionAt returns the citation function stored with a commit. The
// returned function is a private copy-on-write snapshot the caller may
// freely mutate (worktrees do exactly that).
func (r *Repo) FunctionAt(commitID object.ID) (*core.Function, error) {
	fn, err := r.ResolvedFunctionAt(commitID)
	if err != nil {
		return nil, err
	}
	return fn.Clone(), nil
}

// ResolvedFunctionAt returns the shared, read-only citation function of a
// committed version. All readers of the same version get the same Function
// instance, decoded once. Callers must not mutate it — use FunctionAt for a
// mutable snapshot.
//
// Reading the commit is the only store access on a cache hit; it is also
// what confirms the version exists in this repository before a cache that
// other repositories fill answers for it.
func (r *Repo) ResolvedFunctionAt(commitID object.ID) (*core.Function, error) {
	treeID, err := r.VCS.TreeOf(commitID)
	if err != nil {
		return nil, err
	}
	return r.functionOf(treeID)
}

// functionOf returns the shared function of the citation.cite in a root
// tree, decoding it on a cache miss.
func (r *Repo) functionOf(treeID object.ID) (*core.Function, error) {
	c := r.functionCache()
	if fn := c.get(treeID); fn != nil {
		return fn, nil
	}
	data, err := r.citeFileOf(treeID)
	if err != nil {
		return nil, err
	}
	fn, err := citefile.DecodeShared(data, &c.records)
	if err != nil {
		return nil, err
	}
	return c.add(treeID, fn), nil
}

// citeFileOf reads the citation.cite of a root tree. Only a tree that has
// none — nothing at the path, or a directory there — is
// ErrNotCitationEnabled. A store that fails to read the tree or the blob
// fails the call: taken for a version without citations, a read error would
// have a worktree start from a default function and commit a version with
// every citation gone.
func (r *Repo) citeFileOf(treeID object.ID) ([]byte, error) {
	e, err := vcs.LookupPath(r.VCS.Objects, treeID, citefile.Path)
	switch {
	case errors.Is(err, vcs.ErrPathNotFound):
		return nil, fmt.Errorf("%w: %v", ErrNotCitationEnabled, err)
	case err != nil:
		return nil, err
	case e.IsDir():
		return nil, fmt.Errorf("%w: %s is a directory", ErrNotCitationEnabled, citefile.Path)
	}
	blob, err := store.GetBlob(r.VCS.Objects, e.ID)
	if err != nil {
		return nil, err
	}
	return blob.Data(), nil
}

// IsCitationEnabled reports whether the commit carries a citation file.
func (r *Repo) IsCitationEnabled(commitID object.ID) bool {
	treeID, err := r.VCS.TreeOf(commitID)
	if err != nil {
		return false
	}
	return vcs.PathExists(r.VCS.Objects, treeID, citefile.Path)
}

// Generate implements citation generation (the extension's "Generate
// Citation" button and the tool's GenCite): resolve the path through the
// version's citation function, then — when the citation came from the root
// default — fill in the cited version's own commit ID and date, so the
// generated citation names the exact version being extracted.
func (r *Repo) Generate(commitID object.ID, path string) (core.Citation, string, error) {
	c, err := r.VCS.Commit(commitID)
	if err != nil {
		return core.Citation{}, "", err
	}
	fn, err := r.functionOf(c.TreeID)
	if err != nil {
		return core.Citation{}, "", err
	}
	// Resolve returns a shallow citation that shares slices with the
	// version's record; only scalar fields are filled in below, which is
	// safe on the value copy.
	cite, from, err := fn.Resolve(path)
	if err != nil {
		return core.Citation{}, "", err
	}
	if from == "/" {
		nameVersion(&cite, commitID, c)
	}
	return cite, from, nil
}

// GenerateChain is Generate under the alternative whole-path semantics. Its
// first link is the root's, filled in as Generate fills a root answer.
func (r *Repo) GenerateChain(commitID object.ID, path string) ([]core.PathCitation, error) {
	c, err := r.VCS.Commit(commitID)
	if err != nil {
		return nil, err
	}
	fn, err := r.functionOf(c.TreeID)
	if err != nil {
		return nil, err
	}
	chain, err := fn.ResolveChain(path)
	if err != nil {
		return nil, err
	}
	nameVersion(&chain[0].Citation, commitID, c)
	return chain, nil
}

// nameVersion fills in a root citation's missing commit ID and date from the
// version it is generated for.
func nameVersion(cite *core.Citation, commitID object.ID, c *object.Commit) {
	if cite.CommitID == "" {
		cite.CommitID = commitID.Short()
	}
	if cite.CommittedDate.IsZero() {
		cite.CommittedDate = c.Committer.When
	}
}

// CiteFileBytes returns the stored citation.cite contents of a commit.
func (r *Repo) CiteFileBytes(commitID object.ID) ([]byte, error) {
	treeID, err := r.VCS.TreeOf(commitID)
	if err != nil {
		return nil, err
	}
	return r.citeFileOf(treeID)
}

// Fork implements ForkCite (paper §3): "copies a version of a repository,
// along with its history, and creates a new repository. The citations in
// citation.cite are also copied." Commit IDs are preserved, so provenance
// back to the origin is intact; the fork gets its own Meta for future
// default root citations.
func Fork(src *Repo, newMeta Meta) (*Repo, error) {
	if err := newMeta.Validate(); err != nil {
		return nil, err
	}
	forked, err := vcs.Fork(src.VCS)
	if err != nil {
		return nil, err
	}
	// The fork holds the same versions, so it reads through the same cache.
	r := &Repo{VCS: forked, Meta: newMeta}
	r.ShareFunctionCache(src.functionCache())
	return r, nil
}

// ForkInto is Fork with the destination's backing storage chosen by the
// caller: src's refs, HEAD and full object closure are copied into the
// (typically freshly created) dst repository. dst keeps its own Meta.
func ForkInto(dst, src *Repo) error {
	return vcs.ForkInto(dst.VCS, src.VCS)
}
