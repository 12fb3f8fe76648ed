// idindex.go is the ordered ID index shared by the stores: a sorted array
// of object IDs with a 256-way fanout table, answering exact and hex-prefix
// lookups in O(log n). PackStore persists one per pack file as the sorted
// base .idx — extended incrementally by the per-batch segment journal
// (packseg.go) and re-snapshotted only when a pack is opened or rolls, so
// persisting index state costs O(batch) per mutation; MemoryStore builds
// one lazily over its key set; the abbreviated-revision resolvers in
// internal/hosting and cmd/gitcite query it through Store.IDsByPrefix
// instead of scanning Store.IDs() per lookup.
package store

import (
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/gitcite/gitcite/internal/vcs/object"
)

// IDIndex is an immutable sorted index over a set of object IDs. The fanout
// table narrows every search to the IDs sharing the query's first byte
// before binary-searching, exactly like Git's pack index: fanout[b] is the
// number of IDs whose first byte is <= b, so bucket b spans
// ids[fanout[b-1]:fanout[b]].
type IDIndex struct {
	ids    []object.ID
	fanout [256]uint32
}

// NewIDIndex builds an index over the given IDs. The input is copied,
// sorted and deduplicated; the caller keeps ownership of its slice.
func NewIDIndex(ids []object.ID) *IDIndex {
	sorted := append([]object.ID(nil), ids...)
	sort.Slice(sorted, func(i, j int) bool { return idLess(sorted[i], sorted[j]) })
	// Deduplicate in place (content addressing makes duplicates common when
	// merging indexes from several sources).
	uniq := sorted[:0]
	for i, id := range sorted {
		if i == 0 || id != sorted[i-1] {
			uniq = append(uniq, id)
		}
	}
	return newIDIndexSorted(uniq)
}

// newIDIndexSorted wraps an already-sorted, deduplicated slice without
// copying. The index takes ownership of ids.
func newIDIndexSorted(ids []object.ID) *IDIndex {
	x := &IDIndex{ids: ids}
	b := 0
	for i, id := range ids {
		for b < int(id[0]) {
			x.fanout[b] = uint32(i)
			b++
		}
	}
	for ; b < 256; b++ {
		x.fanout[b] = uint32(len(ids))
	}
	return x
}

func idLess(a, b object.ID) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// Len returns the number of indexed IDs.
func (x *IDIndex) Len() int { return len(x.ids) }

// bucket returns the sorted sub-slice of IDs sharing the first byte b,
// together with its starting position.
func (x *IDIndex) bucket(b byte) ([]object.ID, int) {
	lo := 0
	if b > 0 {
		lo = int(x.fanout[b-1])
	}
	return x.ids[lo:x.fanout[b]], lo
}

// Contains reports whether id is indexed, in O(log n) over the id's fanout
// bucket.
func (x *IDIndex) Contains(id object.ID) bool {
	bucket, _ := x.bucket(id[0])
	i := sort.Search(len(bucket), func(i int) bool { return !idLess(bucket[i], id) })
	return i < len(bucket) && bucket[i] == id
}

// ErrBadPrefix reports a malformed hex ID prefix passed to a prefix search.
var ErrBadPrefix = errors.New("store: malformed id prefix")

// prefixBounds converts a hex ID prefix into the inclusive [lo, hi] ID range
// it covers: lo pads the prefix with zero nibbles, hi with 0xf nibbles. An
// odd-length prefix covers the half-open nibble.
func prefixBounds(prefix string) (lo, hi object.ID, err error) {
	prefix = strings.ToLower(prefix)
	if prefix == "" || len(prefix) > object.IDSize*2 {
		return lo, hi, fmt.Errorf("%w: %q", ErrBadPrefix, prefix)
	}
	const zeros = "0000000000000000000000000000000000000000000000000000000000000000"
	const fs = "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"
	pad := object.IDSize*2 - len(prefix)
	lob, err := hex.DecodeString(prefix + zeros[:pad])
	if err != nil {
		return lo, hi, fmt.Errorf("%w: %q", ErrBadPrefix, prefix)
	}
	hib, _ := hex.DecodeString(prefix + fs[:pad])
	copy(lo[:], lob)
	copy(hi[:], hib)
	return lo, hi, nil
}

// ByPrefix returns the indexed IDs whose hex form begins with prefix, in
// sorted order, stopping after limit matches (limit <= 0 returns all). The
// search is O(log n) + O(matches): the fanout table and a binary search
// locate the first candidate, and matches are contiguous from there.
func (x *IDIndex) ByPrefix(prefix string, limit int) ([]object.ID, error) {
	lo, hi, err := prefixBounds(prefix)
	if err != nil {
		return nil, err
	}
	search := x.ids
	if lo[0] == hi[0] {
		// The whole range shares a first byte: search only its bucket.
		search, _ = x.bucket(lo[0])
	}
	i := sort.Search(len(search), func(i int) bool { return !idLess(search[i], lo) })
	var out []object.ID
	for ; i < len(search) && !idLess(hi, search[i]); i++ {
		out = append(out, search[i])
		if limit > 0 && len(out) == limit {
			break
		}
	}
	return out, nil
}

// lazyIDIndex is the build-on-demand IDIndex over a mutating key set that
// MemoryStore and PackStore share: the first lookup after a mutation sorts
// the keys once, later lookups reuse the immutable index, and a bumped
// generation counter invalidates it. The embedding store owns the mutex
// guarding both this struct and the key set.
type lazyIDIndex struct {
	idx   *IDIndex
	gen   uint64
	valid bool
}

// get returns an index current at gen(), rebuilding from collect() when
// stale. gen and collect are called with mu held (read or write). The
// returned index is immutable: a concurrent mutation only makes it stale
// for the next call, never inconsistent.
func (l *lazyIDIndex) get(mu *sync.RWMutex, gen func() uint64, collect func() []object.ID) *IDIndex {
	mu.RLock()
	idx, fresh := l.idx, l.valid && l.gen == gen()
	mu.RUnlock()
	if fresh {
		return idx
	}
	mu.Lock()
	defer mu.Unlock()
	if !l.valid || l.gen != gen() {
		l.idx = NewIDIndex(collect())
		l.gen = gen()
		l.valid = true
	}
	return l.idx
}

// PrefixSearcher is the ordered-index part of Store: hex-prefix ID queries
// answered without enumerating every stored object — O(log n) per lookup
// instead of an O(n) IDs() scan.
type PrefixSearcher interface {
	// IDsByPrefix returns up to limit stored object IDs whose lower-case
	// hex form begins with prefix (limit <= 0 returns all), in unspecified
	// order. A malformed prefix reports ErrBadPrefix.
	IDsByPrefix(prefix string, limit int) ([]object.ID, error)
}

// IDsByPrefix answers a hex-prefix ID query (s.IDsByPrefix).
func IDsByPrefix(s Store, prefix string, limit int) ([]object.ID, error) {
	return s.IDsByPrefix(prefix, limit)
}
