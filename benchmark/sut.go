package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gitcite/gitcite"
	"github.com/gitcite/gitcite/internal/vcs"
	"github.com/gitcite/gitcite/internal/vcs/refs"
	"github.com/gitcite/gitcite/internal/vcs/store"
)

// The flag defaults of `gitcite-server -pack DIR`, which the hosted
// workloads reproduce in-process.
const (
	openRepoLimit   = 64
	autoRepackPacks = 8
	autoRepackLoose = 512
	// objectCacheCap is vcs.OpenPackedFileRepository's decoded-object cache
	// size; the traced stack rebuilds that constructor around the timed
	// wrappers and must use the same capacity.
	objectCacheCap = 4096
)

// tracedStack is one pack-backed repository as vcs.OpenPackedFileRepository
// builds it (CachedStore over PackStore, file refs), with a timed wrapper
// above and below the cache and around the refs.
type tracedStack struct {
	pack  *store.PackStore
	cache *store.CachedStore
	above *timedStore // what the repository sees: cache hits and misses alike
	below *timedStore // what reaches the pack store
	refs  *timedRefs
}

func openTracedStack(dir string, tr *tracer) (*tracedStack, error) {
	pack, err := store.NewPackStore(dir + "/objects")
	if err != nil {
		return nil, err
	}
	rs, err := refs.NewFileStore(dir)
	if err != nil {
		pack.Close()
		return nil, err
	}
	st := &tracedStack{pack: pack, refs: &timedRefs{inner: rs, tr: tr}}
	st.below = newTimedStore(pack, tr, "store.pack")
	st.cache = store.NewCachedStore(st.below, objectCacheCap)
	st.above = newTimedStore(st.cache, tr, "store.cached")
	return st, nil
}

func (st *tracedStack) repository(meta gitcite.Meta) *gitcite.Repository {
	return &gitcite.Repository{VCS: &vcs.Repository{Objects: st.above, Refs: st.refs}, Meta: meta}
}

// stackStats sums what the traced stacks of one pass saw. Stacks of
// repositories the LRU has since closed still count: their counters outlive
// their file handles.
type stackStats struct {
	cachedGets, packGets             int64
	cachedPutObjects, packPutObjects int64
	cacheHits, cacheMiss             uint64
	idxBytes                         int64
}

// stackSet collects the stacks a traced pass opens (the platform's factory
// and the local tool's repository both register here).
type stackSet struct {
	mu     sync.Mutex
	stacks []*tracedStack
}

func (ss *stackSet) open(dir string, tr *tracer) (*tracedStack, error) {
	h := tr.start("store.pack.open")
	st, err := openTracedStack(dir, tr)
	tr.end(h)
	if err != nil {
		return nil, err
	}
	ss.mu.Lock()
	ss.stacks = append(ss.stacks, st)
	ss.mu.Unlock()
	return st, nil
}

func (ss *stackSet) stats() stackStats {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	var s stackStats
	for _, st := range ss.stacks {
		s.cachedGets += st.above.gets.Load()
		s.cachedPutObjects += st.above.putObjects.Load()
		s.packGets += st.below.gets.Load()
		s.packPutObjects += st.below.putObjects.Load()
		h, m := st.cache.Stats()
		s.cacheHits += h
		s.cacheMiss += m
		s.idxBytes += st.pack.IdxBytesWritten()
	}
	return s
}

// sut is the system under test of the hosted workloads: a durable platform
// on a data directory behind the REST server on a loopback listener — the
// same construction as `gitcite-server -pack DIR` with flag defaults.
type sut struct {
	dir      string
	platform *gitcite.Platform
	srv      *http.Server
	served   chan error
	url      string

	// Traced pass only.
	tr        *tracer
	stacks    *stackSet
	handler   *tracedHandler
	transport *tracedTransport
	factoryN  atomic.Int64
}

// bootSUT opens the platform on dir and starts serving it. With a tracer the
// platform opens repositories through the traced stack, the server sits
// behind tracedHandler and clients go through tracedTransport; without one
// nothing of this file's instrumentation is in the path.
func bootSUT(dir string, tr *tracer) (*sut, error) {
	s := &sut{dir: dir, tr: tr, served: make(chan error, 1)}
	opts := []gitcite.PlatformOption{
		gitcite.WithOpenRepoLimit(openRepoLimit),
		gitcite.WithAutoRepack(autoRepackPacks, autoRepackLoose),
	}
	if tr != nil {
		s.stacks = &stackSet{}
		opts = append(opts, gitcite.WithRepoFactory(func(meta gitcite.Meta) (*gitcite.Repository, error) {
			s.factoryN.Add(1)
			st, err := s.stacks.open(filepath.Join(dir, meta.Owner, meta.Name), tr)
			if err != nil {
				return nil, err
			}
			return st.repository(meta), nil
		}))
	}
	platform, err := gitcite.OpenPlatform(dir, opts...)
	if err != nil {
		return nil, err
	}
	s.platform = platform
	var handler http.Handler = gitcite.NewServer(platform, gitcite.WithAllowedOrigin("*"))
	if tr != nil {
		s.handler = &tracedHandler{inner: handler, tr: tr}
		handler = s.handler
		s.transport = newTracedTransport(tr)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		platform.Close()
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: handler}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// client returns a fresh extension client (its own connection pool, so one
// closed-loop client holds one keep-alive connection).
func (s *sut) client(token string) *gitcite.Client {
	c := gitcite.NewClient(s.url, token)
	if s.transport != nil {
		c = c.WithTransport(s.transport)
	}
	return c
}

// close drains the server, waits for its goroutine and closes the platform.
func (s *sut) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if s.transport != nil {
		s.transport.base.CloseIdleConnections()
	}
	if cerr := s.platform.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// packCensus counts the pack files under a data directory: the total and
// the most any one repository holds. It reads the directory tree, so it
// reports the same thing whether or not the stores are wrapped.
func packCensus(dir string) (total, maxPerRepo int, err error) {
	perDir := map[string]int{}
	err = filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(p, ".pack") {
			total++
			perDir[filepath.Dir(p)]++
		}
		return nil
	})
	for _, n := range perDir {
		maxPerRepo = max(maxPerRepo, n)
	}
	return total, maxPerRepo, err
}

// checkBelowRepackThreshold fails when any repository under dir has reached
// the auto-repack threshold. The timed wrappers hide the pack store from the
// platform's repack policy, so the traced and untraced passes only run the
// same program while no repository gets that far.
func checkBelowRepackThreshold(dir string) error {
	_, most, err := packCensus(dir)
	if err != nil {
		return err
	}
	if most >= autoRepackPacks {
		return fmt.Errorf("a repository reached %d packs (auto-repack threshold %d): traced and untraced passes would diverge", most, autoRepackPacks)
	}
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// freshDir creates an empty directory for one pass under root.
func freshDir(root, label string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, label+"-")
}
