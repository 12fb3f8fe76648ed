// Package gitcite is the public API of the GitCite reproduction — a system
// for automating software citation on top of a Git-like version-control
// substrate, after "Automating Software Citation using GitCite" (Chen &
// Davidson).
//
// The model: a project repository is a DAG of versions, each version a
// rooted tree of directories and files. Every version carries a partial
// citation function from tree paths to citation records, stored in a
// citation.cite file at the version root; the root path always has a
// citation, and the citation of any node resolves to the node's own entry
// or that of its closest cited ancestor. Citation operators (AddCite,
// DelCite, ModifyCite) and citation-extended version-control operators
// (CopyCite, MergeCite, ForkCite) keep the function consistent as the
// project evolves.
//
// Quick start:
//
//	repo, _ := gitcite.NewRepository(gitcite.Meta{Owner: "alice", Name: "proj"})
//	wt, _ := repo.Checkout("main")
//	_ = wt.WriteFile("/src/main.go", []byte("package main\n"))
//	_ = wt.AddCite("/src", gitcite.Citation{Owner: "alice", RepoName: "proj-src", URL: "…", Version: "1"})
//	commit, _ := wt.Commit(gitcite.CommitOptions{Author: gitcite.Sig("alice", "a@x", time.Now()), Message: "init"})
//	cite, from, _ := repo.Generate(commit, "/src/main.go")
//
// The subsystems (all re-exported here) are: the citation model
// (internal/core), the version-control substrate (internal/vcs), the
// citation.cite codec (internal/citefile), citation renderers
// (internal/format), the hosting platform and browser-extension client
// (internal/hosting, internal/extension), retroactive citation tooling
// (internal/retro) and the software archive (internal/archive).
package gitcite

import (
	"log"
	"time"

	"github.com/gitcite/gitcite/internal/archive"
	"github.com/gitcite/gitcite/internal/citefile"
	"github.com/gitcite/gitcite/internal/core"
	"github.com/gitcite/gitcite/internal/extension"
	"github.com/gitcite/gitcite/internal/format"
	impl "github.com/gitcite/gitcite/internal/gitcite"
	"github.com/gitcite/gitcite/internal/hosting"
	"github.com/gitcite/gitcite/internal/report"
	"github.com/gitcite/gitcite/internal/retro"
	"github.com/gitcite/gitcite/internal/vcs"
	"github.com/gitcite/gitcite/internal/vcs/merge"
	"github.com/gitcite/gitcite/internal/vcs/object"
)

// ---- citation model ----

// Citation is one citation record (the paper's Listing-1 fields plus DOI,
// version, license, note and open extra metadata).
type Citation = core.Citation

// Function is a version's citation function: a partial map from tree paths
// to citations whose root entry always exists.
type Function = core.Function

// PathCitation pairs an active-domain path with its citation.
type PathCitation = core.PathCitation

// Tree abstracts one version's directory structure for the model.
type Tree = core.Tree

// PathSet is an in-memory Tree built from file paths.
type PathSet = core.PathSet

// MergeConflict is a citation-key conflict found while merging.
type MergeConflict = core.MergeConflict

// Strategy selects how citation merge conflicts are settled.
type Strategy = core.Strategy

// Citation merge strategies (see core.Merge).
const (
	StrategyAsk      = core.StrategyAsk
	StrategyOurs     = core.StrategyOurs
	StrategyTheirs   = core.StrategyTheirs
	StrategyNewest   = core.StrategyNewest
	StrategyThreeWay = core.StrategyThreeWay
)

// NewFunction creates a citation function with the given root citation.
func NewFunction(root Citation) (*Function, error) { return core.NewFunction(root) }

// NewPathSet builds a PathSet from file paths.
func NewPathSet(filePaths ...string) (*PathSet, error) { return core.NewPathSet(filePaths...) }

// ---- repositories (the local executable tool) ----

// Meta is repository-level metadata seeding default root citations.
type Meta = impl.Meta

// Repository is a citation-enabled repository.
type Repository = impl.Repo

// Worktree is a mutable working copy of one branch.
type Worktree = impl.Worktree

// ErrStaleWorktree is returned by Worktree.Commit when the branch moved since
// the worktree was checked out; match it with errors.Is.
var ErrStaleWorktree = impl.ErrStaleWorktree

// CommitOptions carries commit metadata.
type CommitOptions = vcs.CommitOptions

// FileContent is one file's bytes (and mode) when building trees directly
// through the version-control layer.
type FileContent = vcs.FileContent

// MergeOptions configures MergeBranches (file and citation halves).
type MergeOptions = impl.MergeOptions

// MergeResult reports a branch merge.
type MergeResult = impl.MergeResult

// CommitID identifies a version (a commit in the version DAG).
type CommitID = object.ID

// Signature identifies an author or committer with a timestamp.
type Signature = object.Signature

// Sig builds a commit signature (time is normalised to UTC seconds).
func Sig(name, email string, when time.Time) Signature { return vcs.Sig(name, email, when) }

// NewRepository creates an in-memory citation-enabled repository.
func NewRepository(meta Meta) (*Repository, error) { return impl.NewMemoryRepo(meta) }

// OpenPackedRepository opens (creating if needed) a repository persisted
// under dir (objects, refs and HEAD live below it). It is the one way to
// open an on-disk repository: objects append to pack files with a sorted
// fan-out ID index, so cold opens and abbreviated-ID lookups stay cheap as
// history grows. A repository written before every repository wrote packs
// keeps its loose one-file-per-object store readable as a read-only tier;
// Repack folds it in. Call Close when done to release the pack file handles
// (Repository.Close walks the gitcite.Repo → vcs.Repository → store close
// chain; an in-memory repository makes it a no-op).
func OpenPackedRepository(dir string, meta Meta) (*Repository, error) {
	return impl.OpenPackedFileRepo(dir, meta)
}

// Repack folds an on-disk repository's legacy loose objects into its pack
// storage and consolidates its packs into one, reporting how many loose
// objects were folded. It errors for an in-memory repository. The fold runs concurrently with reads and commits
// (the store is locked only for the final swap); an already-consolidated
// store returns immediately without rewriting anything.
func Repack(r *Repository) (int, error) { return r.VCS.Repack() }

// Fork implements ForkCite: a full-history copy under new metadata,
// citations included, commit IDs preserved.
func Fork(src *Repository, newMeta Meta) (*Repository, error) { return impl.Fork(src, newMeta) }

// FileMergeOptions configures the file-level half of a merge.
type FileMergeOptions = merge.Options

// FileConflict is a file-level merge conflict.
type FileConflict = merge.Conflict

// CiteMergeOptions configures the citation half of a merge.
type CiteMergeOptions = core.MergeOptions

// ---- citation.cite and rendering ----

// CiteFileName is the citation file's name ("citation.cite").
const CiteFileName = citefile.Filename

// EncodeCiteFile serialises a citation function deterministically; isDir
// controls Listing-1-style trailing slashes on directory keys.
func EncodeCiteFile(f *Function, isDir func(string) bool) ([]byte, error) {
	return citefile.Encode(f, isDir)
}

// DecodeCiteFile parses a citation.cite.
func DecodeCiteFile(data []byte) (*Function, error) { return citefile.Decode(data) }

// Format names a citation rendering (text, bibtex, cff, json).
type Format = format.Format

// Render formats.
const (
	FormatText   = format.FormatText
	FormatBibTeX = format.FormatBibTeX
	FormatCFF    = format.FormatCFF
	FormatJSON   = format.FormatJSON
	FormatRIS    = format.FormatRIS
)

// Render renders a citation in the requested format.
func Render(c Citation, f Format) (string, error) { return format.Render(c, f) }

// ---- hosting platform + extension client ----

// Platform is the in-process hosting service (the GitHub stand-in). Its
// methods take a context.Context threaded down from the HTTP request.
type Platform = hosting.Platform

// Server exposes a Platform over the versioned REST API (/api/v1) with
// negotiated incremental sync, streaming object transfer, ETag-based
// immutable-read caching and a middleware chain (logging, CORS, per-token
// rate limiting, auth extraction).
type Server = hosting.Server

// ServerOption configures the Server middleware chain.
type ServerOption = hosting.ServerOption

// Client is the browser-extension-equivalent REST client for API v1. Sync
// pushes and Fetch pulls move only the negotiated object delta, streamed
// one object per line.
type Client = extension.Client

// APIError is a non-2xx platform response carrying the stable
// machine-readable error code ("not_found", "conflict", "ambiguous_ref",
// "rate_limited", …).
type APIError = extension.APIError

// PlatformOption configures platform construction (repository storage).
type PlatformOption = hosting.PlatformOption

// WithRepoFactory makes the platform create hosted repositories through the
// given factory — e.g. pack-backed persistent storage — instead of in
// memory.
func WithRepoFactory(f func(meta Meta) (*Repository, error)) PlatformOption {
	return hosting.WithRepoFactory(f)
}

// WithOpenRepoLimit bounds the open hosted-repository handles on a
// persistent platform: beyond the cap, the least-recently-used idle repo
// is closed (never one mid-request) and transparently reopens on next
// use.
func WithOpenRepoLimit(n int) PlatformOption { return hosting.WithOpenRepoLimit(n) }

// WithAutoRepack makes pushes trigger a background repack of the pushed
// repository once its pack count exceeds packs or its loose-object count
// exceeds loose (≤ 0 disables that threshold).
func WithAutoRepack(packs, loose int) PlatformOption { return hosting.WithAutoRepack(packs, loose) }

// NewPlatform creates an empty hosting platform.
func NewPlatform(opts ...PlatformOption) *Platform { return hosting.NewPlatform(opts...) }

// OpenPlatform opens (or creates) a durable platform rooted at dir:
// every acknowledged mutation is journaled write-ahead to dir's
// manifest, and opening replays the journal and reconciles it against
// the directory tree — recovering hosted repositories, aborting forks
// that died mid-copy and removing orphan directories. Close the
// platform when done; a crash at any point is equivalent to a close.
func OpenPlatform(dir string, opts ...PlatformOption) (*Platform, error) {
	return hosting.OpenPlatform(dir, opts...)
}

// NewServer wraps a platform with the REST API; mount it on any net/http
// server.
func NewServer(p *Platform, opts ...ServerOption) *Server { return hosting.NewServer(p, opts...) }

// WithAllowedOrigin sets the CORS allowed origin ("*" is the default; empty
// disables CORS handling).
func WithAllowedOrigin(origin string) ServerOption { return hosting.WithAllowedOrigin(origin) }

// WithRateLimit enables per-token rate limiting (429 + "rate_limited"
// beyond rps with the given burst).
func WithRateLimit(rps float64, burst int) ServerOption { return hosting.WithRateLimit(rps, burst) }

// WithRequestLogger makes the server log one line per request.
func WithRequestLogger(l *log.Logger) ServerOption { return hosting.WithRequestLogger(l) }

// WithAdminToken enables the /api/v1/admin operator surface (status,
// per-repo stats, manual repack, orphan GC), gated by the given bearer
// token. Without it the admin routes answer 403.
func WithAdminToken(token string) ServerOption { return hosting.WithAdminToken(token) }

// NewClient creates an API client; token may be empty for anonymous use.
func NewClient(baseURL, token string) *Client { return extension.New(baseURL, token) }

// IsPermissionDenied reports whether an error is the platform refusing a
// non-member write.
func IsPermissionDenied(err error) bool { return extension.IsPermissionDenied(err) }

// ---- retroactive citations ----

// RetroOptions configures retroactive citation synthesis.
type RetroOptions = retro.Options

// RetroReport summarises a retroactive enablement.
type RetroReport = retro.Report

// RetroIssue is a citation-consistency problem found in a history.
type RetroIssue = retro.Issue

// EnableRetroactively rewrites branch into a citation-enabled parallel
// history on newBranch (paper §5, future work 2).
func EnableRetroactively(repo *Repository, branch, newBranch string, opts RetroOptions) (RetroReport, error) {
	return retro.Enable(repo, branch, newBranch, opts)
}

// CheckCitationConsistency audits every version reachable from a branch.
func CheckCitationConsistency(repo *Repository, branch string) ([]RetroIssue, error) {
	return retro.Check(repo, branch)
}

// ---- credit reports ----

// CreditReport is the credit accounting of one version: per-author file
// counts and per-entry coverage.
type CreditReport = report.Report

// BuildCreditReport computes the credit report for one version.
func BuildCreditReport(repo *Repository, commit CommitID) (*CreditReport, error) {
	return report.Build(repo, commit)
}

// ---- software archive ----

// Archive is the Software-Heritage-style archive + DOI registry.
type Archive = archive.Archive

// ArchiveDeposit records one archived version.
type ArchiveDeposit = archive.Deposit

// SWHID is an intrinsic content-derived identifier.
type SWHID = archive.SWHID

// NewArchive creates an archive minting DOIs under the given prefix.
func NewArchive(doiPrefix string) *Archive { return archive.New(doiPrefix) }
