package store

import (
	"container/list"
	"sync"
	"sync/atomic"

	"github.com/gitcite/gitcite/internal/vcs/object"
)

// cacheShardCount is the number of independent LRU shards. Objects map to
// shards by the first byte of their ID (a uniform content hash), so
// parallel Gets of distinct objects contend on a shard mutex only 1/16th
// of the time.
const cacheShardCount = 16

// CachedStore is an LRU cache over another Store: read-through, and
// write-through for objects the writer hands over decoded. Because
// objects are immutable, cached entries can never go stale; eviction is
// purely a memory-bound concern. It is safe for concurrent use.
//
// The cache is sharded: each shard has its own mutex, LRU list and index,
// so parallel reads do not serialise on a single lock. Concurrent misses
// for the same object are deduplicated singleflight-style — one caller
// fetches from the backend while the rest wait for its result — so a hot
// object being requested by N readers costs one backend read, not N.
type CachedStore struct {
	backend     Store
	capPerShard int
	shards      []cacheShard

	hits, misses atomic.Uint64
}

type cacheShard struct {
	mu       sync.Mutex
	lru      *list.List // front = most recently used; values are cacheEntry
	index    map[object.ID]*list.Element
	inflight map[object.ID]*fetchCall
}

type cacheEntry struct {
	id  object.ID
	obj object.Object
}

// fetchCall is one in-flight backend fetch that concurrent misses for the
// same object wait on.
type fetchCall struct {
	done chan struct{}
	obj  object.Object
	err  error
}

// NewCachedStore wraps backend with a cache of at most capacity objects.
// A capacity of 0 or less disables caching (pass-through). Caches smaller
// than cacheShardCount² objects keep a single shard, preserving exact
// global LRU order; larger caches shard, making the capacity approximate
// (it is rounded up to a multiple of the shard count).
func NewCachedStore(backend Store, capacity int) *CachedStore {
	n := 1
	if capacity >= cacheShardCount*cacheShardCount {
		n = cacheShardCount
	}
	s := &CachedStore{backend: backend, shards: make([]cacheShard, n)}
	if capacity > 0 {
		s.capPerShard = (capacity + n - 1) / n
	}
	for i := range s.shards {
		s.shards[i].lru = list.New()
		s.shards[i].index = make(map[object.ID]*list.Element)
		s.shards[i].inflight = make(map[object.ID]*fetchCall)
	}
	return s
}

func (s *CachedStore) shard(id object.ID) *cacheShard {
	return &s.shards[int(id[0])%len(s.shards)]
}

// Close releases the backend's resources when it holds any (pack file
// handles, say). The cached objects themselves need no teardown; the store
// must not be used after Close. Part of the close chain gitcite.Repo →
// vcs.Repository → store that lets a hosting platform bound its open
// repositories.
func (s *CachedStore) Close() error {
	if c, ok := s.backend.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}

// Backend returns the store the cache reads through — callers that need a
// backend-specific operation (PackStore.Repack) unwrap through it.
func (s *CachedStore) Backend() Store { return s.backend }

// Stats returns the cumulative hit and miss counts. Every Get or Has that
// is answered from the cache counts as a hit; every one that has to
// consult the backend (including singleflight waiters that piggyback on
// another caller's fetch) counts as a miss.
func (s *CachedStore) Stats() (hits, misses uint64) {
	return s.hits.Load(), s.misses.Load()
}

// Put implements Store, populating the cache on write.
func (s *CachedStore) Put(o object.Object) (object.ID, error) {
	id, err := s.backend.Put(o)
	if err != nil {
		return id, err
	}
	s.insert(id, o)
	return id, nil
}

// Get implements Store.
func (s *CachedStore) Get(id object.ID) (object.Object, error) {
	sh := s.shard(id)
	sh.mu.Lock()
	if el, ok := sh.index[id]; ok {
		sh.lru.MoveToFront(el)
		o := el.Value.(cacheEntry).obj
		sh.mu.Unlock()
		s.hits.Add(1)
		return o, nil
	}
	s.misses.Add(1)
	if call, ok := sh.inflight[id]; ok {
		// Another caller is already fetching this object; wait for it.
		sh.mu.Unlock()
		<-call.done
		return call.obj, call.err
	}
	call := &fetchCall{done: make(chan struct{})}
	sh.inflight[id] = call
	sh.mu.Unlock()

	call.obj, call.err = s.backend.Get(id)
	if call.err == nil {
		s.insert(id, call.obj)
	}
	sh.mu.Lock()
	delete(sh.inflight, id)
	sh.mu.Unlock()
	close(call.done)
	return call.obj, call.err
}

func (s *CachedStore) insert(id object.ID, o object.Object) {
	if s.capPerShard <= 0 {
		return
	}
	sh := s.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.index[id]; ok {
		sh.lru.MoveToFront(el)
		return
	}
	sh.index[id] = sh.lru.PushFront(cacheEntry{id: id, obj: o})
	for sh.lru.Len() > s.capPerShard {
		oldest := sh.lru.Back()
		sh.lru.Remove(oldest)
		delete(sh.index, oldest.Value.(cacheEntry).id)
	}
}

// PutMany implements BatchStore: the batch goes to the backend's batch
// path, then populates the cache.
func (s *CachedStore) PutMany(objs []object.Object) ([]object.ID, error) {
	ids, err := s.backend.PutMany(objs)
	if err != nil {
		return nil, err
	}
	for i, o := range objs {
		s.insert(ids[i], o)
	}
	return ids, nil
}

// PutManyEncoded implements RawBatchStore by forwarding to the backend's
// raw path, then writes through the commits and trees the producer passed
// decoded. Nothing is cached before the backend has acknowledged the whole
// batch, so a failed or torn batch leaves the cache claiming no object the
// backend may lack. Blobs are left to enter on first read: a push uploads
// file contents nobody may ever ask this server for, while the trees and
// commits above them are read back by the very next commit, negotiation or
// citation lookup.
func (s *CachedStore) PutManyEncoded(batch []Encoded) error {
	if err := s.backend.PutManyEncoded(batch); err != nil {
		return err
	}
	for _, e := range batch {
		if e.Obj != nil && e.Obj.Type() != object.TypeBlob {
			s.insert(e.ID, e.Obj)
		}
	}
	return nil
}

// HasMany implements BatchStore: cache hits are answered locally — one
// lock acquisition per shard, not per ID — and only the residue is
// forwarded to the backend as one batch.
func (s *CachedStore) HasMany(ids []object.ID) ([]bool, error) {
	have := make([]bool, len(ids))
	var missIdx []int
	byShard := make(map[*cacheShard][]int)
	for i, id := range ids {
		sh := s.shard(id)
		byShard[sh] = append(byShard[sh], i)
	}
	hits := 0
	for sh, idxs := range byShard {
		sh.mu.Lock()
		for _, i := range idxs {
			if _, ok := sh.index[ids[i]]; ok {
				have[i] = true
				hits++
			} else {
				missIdx = append(missIdx, i)
			}
		}
		sh.mu.Unlock()
	}
	s.hits.Add(uint64(hits))
	s.misses.Add(uint64(len(missIdx)))
	if len(missIdx) == 0 {
		return have, nil
	}
	missIDs := make([]object.ID, len(missIdx))
	for j, i := range missIdx {
		missIDs[j] = ids[i]
	}
	backendHave, err := s.backend.HasMany(missIDs)
	if err != nil {
		return nil, err
	}
	for j, i := range missIdx {
		have[i] = backendHave[j]
	}
	return have, nil
}

// Has implements Store. A cache hit answers immediately (and counts toward
// Stats); otherwise the backend is consulted.
func (s *CachedStore) Has(id object.ID) (bool, error) {
	sh := s.shard(id)
	sh.mu.Lock()
	_, ok := sh.index[id]
	sh.mu.Unlock()
	if ok {
		s.hits.Add(1)
		return true, nil
	}
	s.misses.Add(1)
	return s.backend.Has(id)
}

// IDs implements Store.
func (s *CachedStore) IDs() ([]object.ID, error) { return s.backend.IDs() }

// IDsByPrefix implements PrefixSearcher by delegating to the backend's
// ordered index.
func (s *CachedStore) IDsByPrefix(prefix string, limit int) ([]object.ID, error) {
	return s.backend.IDsByPrefix(prefix, limit)
}

// Len implements Store.
func (s *CachedStore) Len() (int, error) { return s.backend.Len() }
