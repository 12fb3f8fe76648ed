package store

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/gitcite/gitcite/internal/vcs/object"
)

// syntheticIDs builds n deterministic pseudo-random IDs (not content
// hashes — index tests only care about ordering).
func syntheticIDs(n int, seed int64) []object.ID {
	rng := rand.New(rand.NewSource(seed))
	ids := make([]object.ID, n)
	for i := range ids {
		rng.Read(ids[i][:])
	}
	return ids
}

// naiveByPrefix is the O(n) reference implementation prefix searches are
// checked against.
func naiveByPrefix(ids []object.ID, prefix string, limit int) []object.ID {
	prefix = strings.ToLower(prefix)
	var out []object.ID
	for _, id := range ids {
		if strings.HasPrefix(id.String(), prefix) {
			out = append(out, id)
			if limit > 0 && len(out) == limit {
				break
			}
		}
	}
	return out
}

func sortIDs(ids []object.ID) []object.ID {
	sorted := append([]object.ID(nil), ids...)
	sort.Slice(sorted, func(i, j int) bool { return idLess(sorted[i], sorted[j]) })
	return sorted
}

func idsEqual(a, b []object.ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestIDIndexByPrefixMatchesNaive(t *testing.T) {
	ids := syntheticIDs(500, 1)
	// A handful of colliding prefixes so multi-match ranges are exercised.
	for i := 0; i < 8; i++ {
		var id object.ID
		copy(id[:], ids[0][:])
		id[object.IDSize-1] = byte(i)
		ids = append(ids, id)
	}
	idx := NewIDIndex(ids)
	sorted := sortIDs(ids)
	if idx.Len() != len(ids) {
		t.Fatalf("Len = %d, want %d", idx.Len(), len(ids))
	}

	var prefixes []string
	for _, id := range ids[:40] {
		hex := id.String()
		for _, l := range []int{1, 2, 3, 4, 7, 64} {
			prefixes = append(prefixes, hex[:l])
		}
	}
	prefixes = append(prefixes, "", "0", "f", "abc", "ffffffff")
	for _, p := range prefixes {
		if p == "" {
			if _, err := idx.ByPrefix(p, 0); !errors.Is(err, ErrBadPrefix) {
				t.Errorf("ByPrefix(%q) error = %v, want ErrBadPrefix", p, err)
			}
			continue
		}
		got, err := idx.ByPrefix(p, 0)
		if err != nil {
			t.Fatalf("ByPrefix(%q): %v", p, err)
		}
		want := naiveByPrefix(sorted, p, 0)
		if !idsEqual(got, want) {
			t.Errorf("ByPrefix(%q) = %d ids, want %d", p, len(got), len(want))
		}
		if lim, _ := idx.ByPrefix(p, 2); len(lim) != min(2, len(want)) {
			t.Errorf("ByPrefix(%q, limit 2) = %d ids, want %d", p, len(lim), min(2, len(want)))
		}
	}
	for _, bad := range []string{"xyz", "g0", strings.Repeat("a", 65), "AB CD"} {
		if _, err := idx.ByPrefix(bad, 0); !errors.Is(err, ErrBadPrefix) {
			t.Errorf("ByPrefix(%q) error = %v, want ErrBadPrefix", bad, err)
		}
	}
	// Upper-case prefixes normalise.
	up := strings.ToUpper(ids[3].String()[:6])
	got, err := idx.ByPrefix(up, 0)
	if err != nil || len(got) == 0 {
		t.Errorf("upper-case prefix: got %d ids, err %v", len(got), err)
	}
}

func TestIDIndexContains(t *testing.T) {
	ids := syntheticIDs(300, 2)
	idx := NewIDIndex(ids)
	for _, id := range ids[:50] {
		if !idx.Contains(id) {
			t.Fatalf("Contains(%s) = false for indexed id", id.Short())
		}
	}
	for _, id := range syntheticIDs(50, 3) {
		if idx.Contains(id) {
			t.Fatalf("Contains(%s) = true for foreign id", id.Short())
		}
	}
	if NewIDIndex(nil).Contains(ids[0]) {
		t.Error("empty index claims containment")
	}
}

func TestIDIndexDeduplicates(t *testing.T) {
	ids := syntheticIDs(20, 4)
	idx := NewIDIndex(append(append([]object.ID(nil), ids...), ids...))
	if idx.Len() != len(ids) {
		t.Errorf("Len = %d after duplicate input, want %d", idx.Len(), len(ids))
	}
}

// TestIDsByPrefixAcrossStores checks every store implementation answers
// prefix queries identically to the naive scan.
func TestIDsByPrefixAcrossStores(t *testing.T) {
	for name, s := range batchStores(t) {
		t.Run(name, func(t *testing.T) {
			var ids []object.ID
			for i := 0; i < 200; i++ {
				id, err := s.Put(object.NewBlobString(fmt.Sprintf("prefix search object %d", i)))
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			}
			sorted := sortIDs(ids)
			for _, id := range ids[:25] {
				for _, l := range []int{1, 2, 4, 8} {
					p := id.String()[:l]
					got, err := IDsByPrefix(s, p, 0)
					if err != nil {
						t.Fatalf("IDsByPrefix(%q): %v", p, err)
					}
					if want := naiveByPrefix(sorted, p, 0); !idsEqual(sortIDs(got), want) {
						t.Errorf("IDsByPrefix(%q) = %d ids, want %d", p, len(got), len(want))
					}
				}
			}
			// Absent prefix and limit behaviour.
			if got, err := IDsByPrefix(s, "ffffffffffff", 0); err != nil || len(got) != len(naiveByPrefix(sorted, "ffffffffffff", 0)) {
				t.Errorf("absent-ish prefix: got %d ids, err %v", len(got), err)
			}
			if got, err := IDsByPrefix(s, ids[0].String()[:1], 3); err != nil || len(got) > 3 {
				t.Errorf("limit: got %d ids, err %v, want <= 3", len(got), err)
			}
			if _, err := IDsByPrefix(s, "not-hex", 0); !errors.Is(err, ErrBadPrefix) {
				t.Errorf("malformed prefix error = %v, want ErrBadPrefix", err)
			}
		})
	}
}

// TestLooseTierPrefixSearch checks a PackStore whose objects are half
// packed and half in the legacy loose tier answers prefix queries
// identically to the naive scan, before and after Repack folds the tier.
func TestLooseTierPrefixSearch(t *testing.T) {
	dir := t.TempDir()
	loose, err := newLooseWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	var objs []object.Object
	for i := 0; i < 200; i++ {
		objs = append(objs, object.NewBlobString(fmt.Sprintf("legacy prefix object %d", i)))
	}
	looseIDs, err := loose.PutMany(objs[:100])
	if err != nil {
		t.Fatal(err)
	}
	ps := newTestPackStore(t, dir)
	packedIDs, err := ps.PutMany(objs[100:])
	if err != nil {
		t.Fatal(err)
	}
	ids := append(looseIDs, packedIDs...)
	sorted := sortIDs(ids)
	check := func(when string) {
		for _, id := range append(append([]object.ID(nil), ids[:10]...), ids[100:110]...) {
			for _, l := range []int{1, 2, 4, 8} {
				p := id.String()[:l]
				got, err := ps.IDsByPrefix(p, 0)
				if err != nil {
					t.Fatalf("%s: IDsByPrefix(%q): %v", when, p, err)
				}
				if want := naiveByPrefix(sorted, p, 0); !idsEqual(sortIDs(got), want) {
					t.Errorf("%s: IDsByPrefix(%q) = %d ids, want %d", when, p, len(got), len(want))
				}
			}
		}
	}
	check("loose tier")
	if folded, err := ps.Repack(); err != nil || folded != 100 {
		t.Fatalf("Repack folded %d, %v; want 100", folded, err)
	}
	check("after Repack")
}

// TestMemoryStoreIndexInvalidation checks new objects become prefix-visible
// after the lazily-built index went stale.
func TestMemoryStoreIndexInvalidation(t *testing.T) {
	s := NewMemoryStore()
	first, _ := s.Put(object.NewBlobString("first"))
	if got, _ := s.IDsByPrefix(first.String()[:8], 0); len(got) != 1 {
		t.Fatalf("warm-up lookup found %d ids", len(got))
	}
	second, _ := s.Put(object.NewBlobString("second"))
	if got, _ := s.IDsByPrefix(second.String()[:8], 0); len(got) != 1 {
		t.Errorf("post-invalidation lookup found %d ids, want 1", len(got))
	}
}

// TestPrefixSearchConcurrent hammers prefix lookups against concurrent
// writes (run with -race).
func TestPrefixSearchConcurrent(t *testing.T) {
	for _, impl := range []struct {
		name string
		s    Store
	}{
		{"memory", NewMemoryStore()},
		{"pack", newTestPackStore(t, t.TempDir())},
	} {
		t.Run(impl.name, func(t *testing.T) {
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 50; i++ {
						id, err := impl.s.Put(object.NewBlobString(fmt.Sprintf("w%d i%d", w, i)))
						if err != nil {
							t.Error(err)
							return
						}
						got, err := IDsByPrefix(impl.s, id.String()[:10], 0)
						if err != nil || len(got) == 0 {
							t.Errorf("IDsByPrefix after Put: %d ids, err %v", len(got), err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
		})
	}
}

func BenchmarkIDIndexByPrefix(b *testing.B) {
	for _, n := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ids := syntheticIDs(n, 9)
			idx := NewIDIndex(ids)
			prefixes := make([]string, 64)
			for i := range prefixes {
				prefixes[i] = ids[i*13%n].String()[:8]
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := idx.ByPrefix(prefixes[i%len(prefixes)], 2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
