// Package hosting simulates the project-hosting platform GitCite's browser
// extension talks to (GitHub in the paper): user accounts with API tokens,
// hosted citation-enabled repositories with member lists, a versioned REST
// API over net/http with negotiated incremental sync, fork support and
// streaming push/pull object transfer.
//
// The permission model is the one Figure 2 of the paper demonstrates:
// anyone may read and generate citations; only the owner and project
// members may add, delete or modify citations (they are the only ones
// allowed to change files, and citation.cite is a file).
//
// Platforms come in two durability classes. NewPlatform is in-memory:
// state lives for the process. OpenPlatform (lifecycle.go) is the hosted
// service shape: accounts, repositories, memberships and fork intents are
// journaled to a crash-safe manifest under a data directory, hosted
// repositories persist as pack-backed stores below it and are opened
// lazily behind a bounded LRU, and boot reconciles the manifest against
// the directory tree so a restart — or a kill -9 mid-fork — loses nothing
// and leaks nothing.
package hosting

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/gitcite/gitcite/internal/gitcite"
)

// Errors reported by the platform core.
var (
	ErrUnauthorized = errors.New("hosting: invalid or missing token")
	ErrForbidden    = errors.New("hosting: operation requires project membership")
	ErrNotFound     = errors.New("hosting: not found")
	ErrConflict     = errors.New("hosting: already exists")
	ErrBadRequest   = errors.New("hosting: bad request")
	// ErrAmbiguousRev reports an abbreviated commit ID that matches more
	// than one commit (surfaced as 409 with code "ambiguous_ref").
	ErrAmbiguousRev = errors.New("hosting: ambiguous commit ID prefix")
	// ErrClosed reports an operation on a platform after Close — only
	// possible when requests outlive the HTTP server's drain.
	ErrClosed = errors.New("hosting: platform closed")
	// ErrNotCaughtUp reports a promotion attempt on a replica whose applied
	// cursor has not reached the primary's head (surfaced as 409 with code
	// "replica_lagging"). Promoting a lagging replica would silently drop
	// every acknowledged write it has not yet applied.
	ErrNotCaughtUp = errors.New("hosting: replica not caught up")
)

// User is one platform account.
type User struct {
	Name  string
	Token string
}

// hostedRepo couples a citation-enabled repository with its access control.
// On a persistent platform the repository handle is open-on-demand: repo is
// nil while closed, opened lazily by Platform.pin and closed again by LRU
// eviction once idle, so file descriptors and memory stay flat however
// many repositories the platform hosts.
type hostedRepo struct {
	owner   string
	meta    gitcite.Meta
	members map[string]bool // user names with write access (owner included)
	// editSem (capacity 1) serialises checkout→edit→commit sequences and
	// push ref updates on one repository so concurrent writers cannot lose
	// updates; a channel rather than a mutex so acquisition can honour
	// context cancellation.
	editSem chan struct{}

	// mu guards the open/closed handle state below. active counts in-flight
	// pins; eviction only ever closes a handle with active == 0, so no
	// request can observe its repository closing underneath it.
	mu     sync.Mutex
	repo   *gitcite.Repo
	active int
	// used is the LRU recency tick, bumped per pin with one atomic store so
	// the hot acquire path never takes an exclusive platform lock.
	used atomic.Int64
	// repacking dedups automatic maintenance: at most one background
	// repack per repository at a time.
	repacking atomic.Bool
}

func newHostedRepo(repo *gitcite.Repo, owner string, meta gitcite.Meta) *hostedRepo {
	return &hostedRepo{
		repo:    repo,
		owner:   owner,
		meta:    meta,
		members: map[string]bool{owner: true},
		editSem: make(chan struct{}, 1),
	}
}

// Platform is the in-process hosting service. Wrap it with NewServer for
// the HTTP API. Safe for concurrent use. Every method takes a
// context.Context threaded down from the HTTP request so cancelled requests
// stop waiting (notably on per-repository edit locks).
type Platform struct {
	mu      sync.RWMutex
	users   map[string]*User // by name
	byToken map[string]*User
	repos   map[string]*hostedRepo // by "owner/name"
	// pending reserves "owner/name" keys for in-flight creates and forks,
	// so the O(closure) history copy can run outside the platform lock
	// without a concurrent create or fork claiming the same name.
	pending map[string]bool
	closed  bool

	// newRepo creates or reopens the backing repository for a hosted (or
	// forked) repository; defaults to in-memory storage. OpenPlatform
	// installs a pack-backed factory rooted at the data directory.
	newRepo    func(meta gitcite.Meta) (*gitcite.Repo, error)
	factorySet bool
	// functions is the decoded-function cache every repository the platform
	// opens shares (openRepo): keyed by root tree, it outlives the handles
	// the LRU closes and serves forks from their parent's entries.
	functions gitcite.FunctionCache

	// Persistence state — zero on in-memory platforms. dir is the data
	// directory, man the open manifest journal. openLimit bounds how many
	// repository handles stay open (0 = unbounded; only enforced with a
	// data directory, where evicted repositories can be reopened).
	dir             string
	man             *manifest
	openLimit       int
	autoRepackPacks int
	autoRepackLoose int

	openCount atomic.Int64
	lruTick   atomic.Int64

	// events is the replication feed (events.go): every acknowledged
	// mutation is published to it after it takes effect, so a follower
	// polling the feed sees state changes in an order it can replay.
	events *eventLog
}

// PlatformOption configures a Platform at construction.
type PlatformOption func(*Platform)

// WithRepoFactory makes the platform create hosted repositories through f
// instead of in memory — e.g. pack-backed persistent storage under a data
// directory. Forks go through the same factory, with the fork's history
// copied in afterwards. On a persistent platform the factory is also the
// re-opener: after an LRU eviction or a restart, the same meta is handed
// back to f to open the existing repository.
func WithRepoFactory(f func(meta gitcite.Meta) (*gitcite.Repo, error)) PlatformOption {
	return func(p *Platform) { p.newRepo = f; p.factorySet = true }
}

// WithOpenRepoLimit bounds how many hosted repository handles the platform
// keeps open at once: beyond n, the least-recently-used idle repository is
// closed (its files released) and transparently reopened on next use.
// Effective only on persistent platforms (OpenPlatform) — an in-memory
// repository cannot be reopened, so the limit is ignored there. n <= 0
// means unbounded.
func WithOpenRepoLimit(n int) PlatformOption {
	return func(p *Platform) { p.openLimit = n }
}

// WithAutoRepack sets the push-piggybacked maintenance policy: after a
// successful push, if the repository's pack count has reached packs or its
// loose-object count has reached loose, a background Repack folds and
// consolidates it (concurrent — readers and writers proceed throughout).
// Zero disables the respective trigger.
func WithAutoRepack(packs, loose int) PlatformOption {
	return func(p *Platform) { p.autoRepackPacks = packs; p.autoRepackLoose = loose }
}

// NewPlatform creates an empty in-memory platform: nothing survives the
// process. Use OpenPlatform for the durable, restartable service shape.
func NewPlatform(opts ...PlatformOption) *Platform {
	p := &Platform{
		users:   map[string]*User{},
		byToken: map[string]*User{},
		repos:   map[string]*hostedRepo{},
		pending: map[string]bool{},
		newRepo: gitcite.NewMemoryRepo,
		events:  newEventLog(),
	}
	for _, o := range opts {
		o(p)
	}
	return p
}

func repoKey(owner, name string) string { return owner + "/" + name }

// openRepo creates or reopens a repository through the factory and hands it
// the platform's function cache.
func (p *Platform) openRepo(meta gitcite.Meta) (*gitcite.Repo, error) {
	repo, err := p.newRepo(meta)
	if err != nil {
		return nil, err
	}
	repo.ShareFunctionCache(&p.functions)
	return repo, nil
}

// CreateUser registers an account and returns its API token. On a
// persistent platform the account (token included) is journaled to the
// manifest before it is acknowledged, so it survives restart.
func (p *Platform) CreateUser(ctx context.Context, name string) (*User, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if name == "" || strings.ContainsAny(name, "/\\\n\r\x00") || strings.HasPrefix(name, ".") {
		return nil, fmt.Errorf("%w: invalid user name %q", ErrBadRequest, name)
	}
	tok := make([]byte, 20)
	if _, err := rand.Read(tok); err != nil {
		return nil, err
	}
	u := &User{Name: name, Token: "gct_" + hex.EncodeToString(tok)}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrClosed
	}
	if _, ok := p.users[name]; ok {
		return nil, fmt.Errorf("%w: user %q", ErrConflict, name)
	}
	if p.man != nil {
		if err := p.man.append(manifestRecord{Op: opUser, Name: u.Name, Token: u.Token}); err != nil {
			return nil, err
		}
	}
	p.users[name] = u
	p.byToken[u.Token] = u
	p.events.publish(Event{Type: EventUser, Name: u.Name, Token: u.Token})
	return u, nil
}

// UpsertUser registers an account with a caller-chosen token, or re-tokens
// an existing one — the follower side of account replication, where the
// token is the primary's and must be mirrored verbatim so the same
// credential authenticates on both. Journaled like CreateUser (opUser
// replay is last-wins, so a re-token survives restart); idempotent when the
// account already carries the token.
func (p *Platform) UpsertUser(ctx context.Context, name, token string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if name == "" || strings.ContainsAny(name, "/\\\n\r\x00") || strings.HasPrefix(name, ".") {
		return fmt.Errorf("%w: invalid user name %q", ErrBadRequest, name)
	}
	if token == "" {
		return fmt.Errorf("%w: empty token for user %q", ErrBadRequest, name)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	if u, ok := p.users[name]; ok {
		if u.Token == token {
			return nil
		}
		if p.man != nil {
			if err := p.man.append(manifestRecord{Op: opUser, Name: name, Token: token}); err != nil {
				return err
			}
		}
		delete(p.byToken, u.Token)
		u.Token = token
		p.byToken[token] = u
		p.events.publish(Event{Type: EventUser, Name: name, Token: token})
		return nil
	}
	if p.man != nil {
		if err := p.man.append(manifestRecord{Op: opUser, Name: name, Token: token}); err != nil {
			return err
		}
	}
	u := &User{Name: name, Token: token}
	p.users[name] = u
	p.byToken[token] = u
	p.events.publish(Event{Type: EventUser, Name: name, Token: token})
	return nil
}

// Authenticate resolves a token to its user.
func (p *Platform) Authenticate(ctx context.Context, token string) (*User, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	u, ok := p.byToken[token]
	if !ok {
		return nil, ErrUnauthorized
	}
	return u, nil
}

// reserveKey claims "owner/name" for an in-flight create or fork, failing
// on a live repository, a concurrent claim, or a closed platform.
func (p *Platform) reserveKey(key string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	if _, ok := p.repos[key]; ok || p.pending[key] {
		return fmt.Errorf("%w: repository %q", ErrConflict, key)
	}
	p.pending[key] = true
	return nil
}

func (p *Platform) releaseKey(key string) {
	p.mu.Lock()
	delete(p.pending, key)
	p.mu.Unlock()
}

// CreateRepoAs creates a citation-enabled repository owned by u. On a
// persistent platform the backing directory is created first and the
// manifest record journaled second: a crash in between leaves an orphan
// directory that boot reconciliation GCs, never a half-acknowledged
// repository.
func (p *Platform) CreateRepoAs(ctx context.Context, u *User, name, url, license string) (*gitcite.Repo, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if u == nil {
		return nil, ErrUnauthorized
	}
	if !validRepoName(name) {
		return nil, fmt.Errorf("%w: invalid repository name %q", ErrBadRequest, name)
	}
	key := repoKey(u.Name, name)
	if err := p.reserveKey(key); err != nil {
		return nil, err
	}
	defer p.releaseKey(key)
	meta := gitcite.Meta{Owner: u.Name, Name: name, URL: url, License: license}
	repo, err := p.openRepo(meta)
	if err != nil {
		return nil, err
	}
	if p.man != nil {
		if err := p.man.append(manifestRecord{Op: opRepo, Owner: u.Name, Repo: name, URL: url, License: license}); err != nil {
			repo.Close()
			os.RemoveAll(p.repoDir(u.Name, name))
			return nil, err
		}
	}
	p.registerOpen(key, newHostedRepo(repo, u.Name, meta))
	p.events.publish(Event{Type: EventRepo, Owner: u.Name, Repo: name, URL: url, License: license})
	return repo, nil
}

// EnsureRepo registers a repository replicated from a primary: no owning
// *User is required (the owner account may replay in the same batch) and an
// existing repository is a no-op, so re-applying a snapshot or an event
// suffix converges. Journal order matches CreateRepoAs — directory first,
// manifest record second.
func (p *Platform) EnsureRepo(ctx context.Context, owner, name, url, license string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if owner == "" || !validRepoName(name) {
		return fmt.Errorf("%w: invalid repository %q/%q", ErrBadRequest, owner, name)
	}
	key := repoKey(owner, name)
	p.mu.RLock()
	_, exists := p.repos[key]
	p.mu.RUnlock()
	if exists {
		return nil
	}
	if err := p.reserveKey(key); err != nil {
		if errors.Is(err, ErrConflict) {
			// Lost a race with another create of the same key — the
			// repository exists (or is about to); idempotence says done.
			return nil
		}
		return err
	}
	defer p.releaseKey(key)
	meta := gitcite.Meta{Owner: owner, Name: name, URL: url, License: license}
	repo, err := p.openRepo(meta)
	if err != nil {
		return err
	}
	if p.man != nil {
		if err := p.man.append(manifestRecord{Op: opRepo, Owner: owner, Repo: name, URL: url, License: license}); err != nil {
			repo.Close()
			os.RemoveAll(p.repoDir(owner, name))
			return err
		}
	}
	p.registerOpen(key, newHostedRepo(repo, owner, meta))
	p.events.publish(Event{Type: EventRepo, Owner: owner, Repo: name, URL: url, License: license})
	return nil
}

// registerOpen publishes a hosted repository whose handle is already open,
// charging it against the open-repo budget.
func (p *Platform) registerOpen(key string, hr *hostedRepo) {
	hr.used.Store(p.lruTick.Add(1))
	p.mu.Lock()
	p.repos[key] = hr
	p.mu.Unlock()
	p.openCount.Add(1)
	p.enforceOpenLimit()
}

// CreateRepo is CreateRepoAs after token authentication.
func (p *Platform) CreateRepo(ctx context.Context, token, name, url, license string) (*gitcite.Repo, error) {
	u, err := p.Authenticate(ctx, token)
	if err != nil {
		return nil, err
	}
	return p.CreateRepoAs(ctx, u, name, url, license)
}

// AddMemberAs grants write access; only the owner may call it.
func (p *Platform) AddMemberAs(ctx context.Context, u *User, owner, name, member string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if u == nil {
		return ErrUnauthorized
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	hr, ok := p.repos[repoKey(owner, name)]
	if !ok {
		return fmt.Errorf("%w: repository %s/%s", ErrNotFound, owner, name)
	}
	if hr.owner != u.Name {
		return fmt.Errorf("%w: only the owner may add members", ErrForbidden)
	}
	if _, ok := p.users[member]; !ok {
		return fmt.Errorf("%w: user %q", ErrNotFound, member)
	}
	if p.man != nil && !hr.members[member] {
		if err := p.man.append(manifestRecord{Op: opMember, Owner: owner, Repo: name, Member: member}); err != nil {
			return err
		}
	}
	if !hr.members[member] {
		hr.members[member] = true
		p.events.publish(Event{Type: EventMember, Owner: owner, Repo: name, Member: member})
	}
	return nil
}

// EnsureMember grants write access replicated from a primary: the
// permission check already happened there, so none runs here (the method is
// not exposed over HTTP). Idempotent; the member account must exist —
// primaries always emit the user event at a lower sequence number.
func (p *Platform) EnsureMember(ctx context.Context, owner, name, member string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	hr, ok := p.repos[repoKey(owner, name)]
	if !ok {
		return fmt.Errorf("%w: repository %s/%s", ErrNotFound, owner, name)
	}
	if hr.members[member] {
		return nil
	}
	if _, ok := p.users[member]; !ok {
		return fmt.Errorf("%w: user %q", ErrNotFound, member)
	}
	if p.man != nil {
		if err := p.man.append(manifestRecord{Op: opMember, Owner: owner, Repo: name, Member: member}); err != nil {
			return err
		}
	}
	hr.members[member] = true
	p.events.publish(Event{Type: EventMember, Owner: owner, Repo: name, Member: member})
	return nil
}

// AddMember is AddMemberAs after token authentication.
func (p *Platform) AddMember(ctx context.Context, token, owner, name, member string) error {
	u, err := p.Authenticate(ctx, token)
	if err != nil {
		return err
	}
	return p.AddMemberAs(ctx, u, owner, name, member)
}

// lookup finds a hosted repository by key.
func (p *Platform) lookup(owner, name string) (*hostedRepo, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return nil, ErrClosed
	}
	hr, ok := p.repos[repoKey(owner, name)]
	if !ok {
		return nil, fmt.Errorf("%w: repository %s/%s", ErrNotFound, owner, name)
	}
	return hr, nil
}

// pin returns the repository handle, opening it through the factory if the
// LRU closed it, and counts the caller as in-flight until release is
// called. A pinned repository is never closed underneath its user.
func (p *Platform) pin(hr *hostedRepo) (*gitcite.Repo, func(), error) {
	hr.mu.Lock()
	if hr.repo == nil {
		repo, err := p.openRepo(hr.meta)
		if err != nil {
			hr.mu.Unlock()
			return nil, nil, err
		}
		hr.repo = repo
		p.openCount.Add(1)
	}
	hr.active++
	repo := hr.repo
	hr.mu.Unlock()
	hr.used.Store(p.lruTick.Add(1))
	p.enforceOpenLimit()
	return repo, func() { p.unpin(hr) }, nil
}

func (p *Platform) unpin(hr *hostedRepo) {
	hr.mu.Lock()
	hr.active--
	hr.mu.Unlock()
}

// AcquireRepo returns the repository for read access (no authentication:
// public read, like public GitHub repositories), pinned open until the
// returned release function is called. Handlers hold the pin for the whole
// request so LRU eviction can never close a repository mid-response.
func (p *Platform) AcquireRepo(ctx context.Context, owner, name string) (*gitcite.Repo, func(), error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	hr, err := p.lookup(owner, name)
	if err != nil {
		return nil, nil, err
	}
	return p.pin(hr)
}

// Repo is AcquireRepo without the pin: the repository is opened (touching
// the LRU) and returned. Convenient for in-memory platforms and tests; on
// a persistent platform with an open-repo limit, prefer AcquireRepo — an
// unpinned handle may be evicted and closed while still in use.
func (p *Platform) Repo(ctx context.Context, owner, name string) (*gitcite.Repo, error) {
	repo, release, err := p.AcquireRepo(ctx, owner, name)
	if err != nil {
		return nil, err
	}
	release()
	return repo, nil
}

// AcquireForWrite returns the repository pinned open if (and only if) u is
// a member.
func (p *Platform) AcquireForWrite(ctx context.Context, u *User, owner, name string) (*gitcite.Repo, func(), error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if u == nil {
		return nil, nil, ErrUnauthorized
	}
	p.mu.RLock()
	hr, ok := p.repos[repoKey(owner, name)]
	var member bool
	if ok {
		member = hr.members[u.Name]
	}
	closed := p.closed
	p.mu.RUnlock()
	if closed {
		return nil, nil, ErrClosed
	}
	if !ok {
		return nil, nil, fmt.Errorf("%w: repository %s/%s", ErrNotFound, owner, name)
	}
	if !member {
		return nil, nil, fmt.Errorf("%w: %s is not a member of %s/%s", ErrForbidden, u.Name, owner, name)
	}
	return p.pin(hr)
}

// AuthorizeWriteAs is AcquireForWrite without the pin (see Repo for the
// caveat on persistent platforms).
func (p *Platform) AuthorizeWriteAs(ctx context.Context, u *User, owner, name string) (*gitcite.Repo, error) {
	repo, release, err := p.AcquireForWrite(ctx, u, owner, name)
	if err != nil {
		return nil, err
	}
	release()
	return repo, nil
}

// AuthorizeWrite is AuthorizeWriteAs after token authentication.
func (p *Platform) AuthorizeWrite(ctx context.Context, token, owner, name string) (*gitcite.Repo, *User, error) {
	u, err := p.Authenticate(ctx, token)
	if err != nil {
		return nil, nil, err
	}
	repo, err := p.AuthorizeWriteAs(ctx, u, owner, name)
	if err != nil {
		return nil, nil, err
	}
	return repo, u, nil
}

// LockForEdit takes the repository's edit lock, returning the unlock
// function. Server-side citation edits hold it across their
// checkout→modify→commit sequence, and pushes across their
// fast-forward-check→store→ref-update sequence. Acquisition honours ctx
// cancellation, so an abandoned request stops queueing for the lock.
func (p *Platform) LockForEdit(ctx context.Context, owner, name string) (func(), error) {
	hr, err := p.lookup(owner, name)
	if err != nil {
		return nil, err
	}
	select {
	case hr.editSem <- struct{}{}:
		return func() { <-hr.editSem }, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// IsMember reports whether the user may write to the repository.
func (p *Platform) IsMember(ctx context.Context, userName, owner, name string) bool {
	if ctx.Err() != nil {
		return false
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	hr, ok := p.repos[repoKey(owner, name)]
	return ok && hr.members[userName]
}

// forkCrashPoint, when set (tests only), simulates a process crash at the
// named fork stage: ForkRepoAs returns immediately — skipping its abort
// and cleanup path — leaving exactly the on-disk state a kill -9 at that
// instant would. Stages: "begun" (intent journaled, nothing copied),
// "created" (destination directory exists, copy incomplete), "copied"
// (copy complete, commit record not journaled).
var forkCrashPoint func(stage string) bool

// errSimulatedCrash is what ForkRepoAs returns when a test crash point
// fires; nothing observes it in production.
var errSimulatedCrash = errors.New("hosting: simulated crash")

// ForkRepoAs implements the platform side of ForkCite: u gets a
// full-history copy under their account (paper §3: "Our way of storing
// citations will naturally enable ForkCite through GitHub's Fork").
//
// On a persistent platform the copy is journaled two-phase: a fork-begin
// record is fsync'd before any bytes move, the O(closure) copy runs, and a
// fork-commit record acknowledges it. Every crash order is therefore
// recoverable at boot: begin without commit ⇒ the destination directory
// (in whatever partial state) is GC'd and the intent aborted; commit
// journaled ⇒ the fork is live. A fork error takes the same abort path
// inline. The name is reserved under the platform lock but the copy runs
// outside it, so a large fork does not stall every other operation.
func (p *Platform) ForkRepoAs(ctx context.Context, u *User, owner, name, newName string) (*gitcite.Repo, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if u == nil {
		return nil, ErrUnauthorized
	}
	if newName == "" {
		newName = name
	}
	if !validRepoName(newName) {
		return nil, fmt.Errorf("%w: invalid repository name %q", ErrBadRequest, newName)
	}
	srcHR, err := p.lookup(owner, name)
	if err != nil {
		return nil, err
	}
	src, releaseSrc, err := p.pin(srcHR)
	if err != nil {
		return nil, err
	}
	defer releaseSrc()
	meta := gitcite.Meta{
		Owner: u.Name, Name: newName,
		URL:     "https://git.example/" + u.Name + "/" + newName,
		License: src.Meta.License,
	}
	if err := meta.Validate(); err != nil {
		return nil, err
	}
	// The name-conflict check MUST precede the factory call: a persistent
	// factory opens the repository's directory, so creating the fork first
	// would open — and ForkInto would overwrite — an existing repository's
	// on-disk refs before the conflict surfaced.
	key := repoKey(u.Name, newName)
	if err := p.reserveKey(key); err != nil {
		return nil, err
	}
	if p.man != nil {
		if err := p.man.append(manifestRecord{
			Op: opForkBegin, Owner: u.Name, Repo: newName,
			URL: meta.URL, License: meta.License,
			SrcOwner: owner, SrcRepo: name,
		}); err != nil {
			p.releaseKey(key)
			return nil, err
		}
	}
	if forkCrashPoint != nil && forkCrashPoint("begun") {
		return nil, errSimulatedCrash
	}

	forked, err := p.openRepo(meta)
	if err == nil {
		if forkCrashPoint != nil && forkCrashPoint("created") {
			return nil, errSimulatedCrash
		}
		err = gitcite.ForkInto(forked, src)
	}
	if err == nil && forkCrashPoint != nil && forkCrashPoint("copied") {
		return nil, errSimulatedCrash
	}
	if err == nil && p.man != nil {
		err = p.man.append(manifestRecord{Op: opForkCommit, Owner: u.Name, Repo: newName})
	}
	if err != nil {
		// Inline abort: same recovery boot reconciliation would perform.
		if forked != nil {
			forked.Close()
		}
		if p.dir != "" {
			os.RemoveAll(p.repoDir(u.Name, newName))
		}
		if p.man != nil {
			// Best-effort: an unjournaled abort just means boot GC redoes it.
			_ = p.man.append(manifestRecord{Op: opForkAbort, Owner: u.Name, Repo: newName})
		}
		p.releaseKey(key)
		return nil, err
	}
	p.releaseKey(key)
	p.registerOpen(key, newHostedRepo(forked, u.Name, meta))
	p.events.publish(Event{Type: EventRepo, Owner: u.Name, Repo: newName, URL: meta.URL, License: meta.License})
	// A fork is born with history: publish its branch tips so followers
	// catch up through the same negotiate path an ordinary push uses.
	if branches, err := forked.VCS.Branches(); err == nil {
		for _, b := range branches {
			if tip, err := forked.VCS.BranchTip(b); err == nil {
				p.publishRef(u.Name, newName, b, tip.String())
			}
		}
	}
	return forked, nil
}

// ForkRepo is ForkRepoAs after token authentication.
func (p *Platform) ForkRepo(ctx context.Context, token, owner, name, newName string) (*gitcite.Repo, error) {
	u, err := p.Authenticate(ctx, token)
	if err != nil {
		return nil, err
	}
	return p.ForkRepoAs(ctx, u, owner, name, newName)
}

// ListRepos returns "owner/name" keys in sorted order.
func (p *Platform) ListRepos(ctx context.Context) []string {
	if ctx.Err() != nil {
		return nil
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	keys := make([]string, 0, len(p.repos))
	for k := range p.repos {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
