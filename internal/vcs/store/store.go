// Package store provides content-addressed object storage for the vcs
// substrate. A Store persists canonical object encodings keyed by their ID;
// because IDs are content hashes, Put is idempotent and objects are
// immutable once stored.
//
// Three implementations are provided: MemoryStore (tests, in-memory
// repositories), PackStore (every on-disk repository, local or hosted:
// append-only pack files with a sorted ID index, reading through to the
// read-only loose tier of repositories written before packs) and
// CachedStore (an LRU read-through cache layered over any Store).
package store

import (
	"errors"
	"fmt"

	"github.com/gitcite/gitcite/internal/vcs/object"
)

// ErrNotFound reports a lookup for an object the store does not hold.
var ErrNotFound = errors.New("store: object not found")

// Store is a content-addressed object database.
//
// Implementations must be safe for concurrent use.
type Store interface {
	// Put stores an object and returns its ID. Storing an object that is
	// already present is a cheap no-op.
	Put(o object.Object) (object.ID, error)
	// Get retrieves an object by ID, returning ErrNotFound if absent.
	Get(id object.ID) (object.Object, error)
	// Has reports whether the store holds the object.
	Has(id object.ID) (bool, error)
	// IDs returns the IDs of every stored object, in unspecified order.
	IDs() ([]object.ID, error)
	// Len returns the number of stored objects.
	Len() (int, error)

	BatchStore
	RawBatchStore
	PrefixSearcher
}

// BatchStore is the batch half of Store: it amortises synchronisation and
// I/O over many objects at once — one lock acquisition per shard, one pack
// append per batch — instead of paying them per object.
type BatchStore interface {
	// PutMany stores every object, returning their IDs in input order.
	// Like Put, storing objects already present is a cheap no-op.
	PutMany(objs []object.Object) ([]object.ID, error)
	// HasMany reports, for each ID in input order, whether the store
	// holds the object.
	HasMany(ids []object.ID) ([]bool, error)
}

// PutMany stores a batch of objects (s.PutMany). IDs are returned in input
// order.
func PutMany(s Store, objs []object.Object) ([]object.ID, error) { return s.PutMany(objs) }

// Encoded is an object already in canonical form: its encoding plus the
// ID derived from it. Producers that had to encode and hash anyway (the
// tree builder derives child IDs during construction) hand these to
// PutManyEncoded so stores do not encode and hash a second time.
//
// Obj is optional: a producer that also holds the object decoded (it built
// it, or decoded the upload to verify it) passes it along, and a caching
// store keeps it once the batch has landed, so the reads that follow a write
// — the next commit's walk down the spine it just built, the negotiation
// over the trees just pushed — do not go back to disk and decode what the
// writer had in hand a moment earlier. Only commits and trees are kept; a
// blob's Obj is ignored (see CachedStore.PutManyEncoded).
type Encoded struct {
	ID  object.ID
	Enc []byte
	Obj object.Object
}

// RawBatchStore is the part of Store that ingests canonical encodings
// directly, skipping the re-encode/re-hash a Put of the decoded
// object would pay. The store takes ownership of the Enc slices.
//
// Trust contract: each ID MUST equal object.HashBytes(Enc), a non-nil Obj
// MUST be what object.Decode(Enc) returns, and neither may be mutated
// afterwards — the store owns both. Stores index the bytes under the given
// ID without re-verifying (re-hashing on ingest would erase the saving this
// interface exists for), so a violating producer corrupts the
// content-addressed store — memory-backed stores silently, file-backed
// ones detected at Get time by hash verification — and a wrong Obj is
// served from the cache until it is evicted.
type RawBatchStore interface {
	PutManyEncoded(batch []Encoded) error
}

// PutManyEncoded stores pre-encoded objects (s.PutManyEncoded).
func PutManyEncoded(s Store, batch []Encoded) error { return s.PutManyEncoded(batch) }

// HasMany answers a batch of presence queries (s.HasMany). Results are in
// input order.
func HasMany(s Store, ids []object.ID) ([]bool, error) { return s.HasMany(ids) }

// GetBlob retrieves an object and asserts it is a blob.
func GetBlob(s Store, id object.ID) (*object.Blob, error) {
	o, err := s.Get(id)
	if err != nil {
		return nil, err
	}
	b, ok := o.(*object.Blob)
	if !ok {
		return nil, fmt.Errorf("store: object %s is a %v, want blob", id.Short(), o.Type())
	}
	return b, nil
}

// GetTree retrieves an object and asserts it is a tree.
func GetTree(s Store, id object.ID) (*object.Tree, error) {
	o, err := s.Get(id)
	if err != nil {
		return nil, err
	}
	t, ok := o.(*object.Tree)
	if !ok {
		return nil, fmt.Errorf("store: object %s is a %v, want tree", id.Short(), o.Type())
	}
	return t, nil
}

// GetCommit retrieves an object and asserts it is a commit.
func GetCommit(s Store, id object.ID) (*object.Commit, error) {
	o, err := s.Get(id)
	if err != nil {
		return nil, err
	}
	c, ok := o.(*object.Commit)
	if !ok {
		return nil, fmt.Errorf("store: object %s is a %v, want commit", id.Short(), o.Type())
	}
	return c, nil
}

// WalkClosure visits the full object graph reachable from the given roots
// (commits pull in parents and trees; trees pull in entries), calling
// visit once per object. Unlike CopyClosure it moves nothing — read
// handlers use it to serialise a closure straight out of a live store,
// each object fetched exactly once, without staging a second copy.
func WalkClosure(src Store, visit func(object.ID, object.Object) error, roots ...object.ID) error {
	seen := make(map[object.ID]bool)
	stack := append([]object.ID(nil), roots...)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if id.IsZero() || seen[id] {
			continue
		}
		seen[id] = true
		o, err := src.Get(id)
		if err != nil {
			return fmt.Errorf("store: closure walk %s: %w", id.Short(), err)
		}
		if err := visit(id, o); err != nil {
			return err
		}
		switch v := o.(type) {
		case *object.Commit:
			stack = append(stack, v.TreeID)
			stack = append(stack, v.Parents...)
		case *object.Tree:
			for _, e := range v.Entries() {
				stack = append(stack, e.ID)
			}
		}
	}
	return nil
}

// CopyClosure copies the full object graph reachable from the given roots
// (commits pull in parents and trees; trees pull in entries) from src to
// dst. Objects already present in dst prune the walk, which makes pushes and
// fetches incremental. It returns the number of objects copied.
//
// The walk proceeds frontier by frontier through the batch API: each round
// asks dst for the whole frontier at once (HasMany) and stores every
// missing object at once (PutMany), so closure transfer does not pay a
// lock-acquiring Has/Put round trip per object.
func CopyClosure(dst, src Store, roots ...object.ID) (int, error) {
	copied := 0
	seen := make(map[object.ID]bool)
	var frontier []object.ID
	push := func(ids ...object.ID) {
		for _, id := range ids {
			if !id.IsZero() && !seen[id] {
				seen[id] = true
				frontier = append(frontier, id)
			}
		}
	}
	push(roots...)
	for len(frontier) > 0 {
		batch := frontier
		frontier = nil
		have, err := HasMany(dst, batch)
		if err != nil {
			return copied, err
		}
		objs := make([]object.Object, 0, len(batch))
		for i, id := range batch {
			if have[i] {
				continue // dst already holds it: prune the walk here
			}
			o, err := src.Get(id)
			if err != nil {
				return copied, fmt.Errorf("store: closure copy %s: %w", id.Short(), err)
			}
			objs = append(objs, o)
		}
		if _, err := PutMany(dst, objs); err != nil {
			return copied, err
		}
		copied += len(objs)
		for _, o := range objs {
			switch v := o.(type) {
			case *object.Commit:
				push(v.TreeID)
				push(v.Parents...)
			case *object.Tree:
				for _, e := range v.Entries() {
					push(e.ID)
				}
			}
		}
	}
	return copied, nil
}
