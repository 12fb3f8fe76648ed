package vcs

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/gitcite/gitcite/internal/vcs/object"
	"github.com/gitcite/gitcite/internal/vcs/store"
)

func resolveTestRepo(tb testing.TB, commits int) (*Repository, []object.ID) {
	tb.Helper()
	r := NewMemoryRepository()
	ids := make([]object.ID, 0, commits)
	for i := 0; i < commits; i++ {
		id, err := r.CommitFiles("main", map[string]FileContent{"/f.txt": File(fmt.Sprint(i))},
			CommitOptions{Author: Sig("a", "a@x", time.Unix(int64(i+1), 0)), Message: fmt.Sprint(i)})
		if err != nil {
			tb.Fatal(err)
		}
		ids = append(ids, id)
	}
	return r, ids
}

func TestResolveCommitPrefix(t *testing.T) {
	r, ids := resolveTestRepo(t, 40)
	tip := ids[len(ids)-1]

	got, err := r.ResolveCommitPrefix(tip.String()[:8])
	if err != nil || got != tip {
		t.Errorf("ResolveCommitPrefix(hit) = %s, %v; want %s", got.Short(), err, tip.Short())
	}
	// Upper-case prefixes normalise.
	if got, err := r.ResolveCommitPrefix(fmt.Sprintf("%X", tip[:4])); err != nil || got != tip {
		t.Errorf("upper-case prefix = %s, %v", got.Short(), err)
	}
	// A prefix matching only a non-commit object does not resolve.
	blobID, err := r.Objects.Put(object.NewBlobString("just a blob"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ResolveCommitPrefix(blobID.String()[:16]); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("blob-only prefix error = %v, want store.ErrNotFound", err)
	}
	if _, err := r.ResolveCommitPrefix("ffffffffffffffff"); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("absent prefix error = %v, want store.ErrNotFound", err)
	}
	if _, err := r.ResolveCommitPrefix("zz"); !errors.Is(err, store.ErrBadPrefix) {
		t.Errorf("malformed prefix error = %v, want store.ErrBadPrefix", err)
	}
}

func TestResolveCommitPrefixAmbiguous(t *testing.T) {
	r := NewMemoryRepository()
	// Spam deterministic commits until two share a 4-char prefix.
	byPrefix := map[string]int{}
	prefix := ""
	for i := 0; i < 3000 && prefix == ""; i++ {
		id, err := r.CommitFiles("main", map[string]FileContent{"/s.txt": File(fmt.Sprint(i))},
			CommitOptions{Author: Sig("s", "s@x", time.Unix(int64(i+1), 0)), Message: fmt.Sprint(i)})
		if err != nil {
			t.Fatal(err)
		}
		p := id.String()[:4]
		if byPrefix[p]++; byPrefix[p] > 1 {
			prefix = p
		}
	}
	if prefix == "" {
		t.Fatal("no 4-char commit prefix collision in 3000 commits")
	}
	if _, err := r.ResolveCommitPrefix(prefix); !errors.Is(err, ErrAmbiguousPrefix) {
		t.Errorf("colliding prefix error = %v, want ErrAmbiguousPrefix", err)
	}
}

// noScanStore forbids full-store enumeration while forwarding ordered
// prefix lookups, failing the test or benchmark the moment a resolver
// falls back to the O(n) IDs() scan.
type noScanStore struct {
	store.Store
	tb testing.TB
}

func (s *noScanStore) IDs() ([]object.ID, error) {
	s.tb.Fatal("store.IDs() called during prefix resolution (full-store scan)")
	return nil, nil
}

func (s *noScanStore) IDsByPrefix(prefix string, limit int) ([]object.ID, error) {
	return store.IDsByPrefix(s.Store, prefix, limit)
}

func TestResolveCommitPrefixNoFullScan(t *testing.T) {
	r, ids := resolveTestRepo(t, 30)
	r.Objects = &noScanStore{Store: r.Objects, tb: t}
	for _, id := range ids[:5] {
		if got, err := r.ResolveCommitPrefix(id.String()[:10]); err != nil || got != id {
			t.Fatalf("ResolveCommitPrefix = %s, %v", got.Short(), err)
		}
	}
}

// BenchmarkResolveCommitPrefix pins the ordered-index resolution cost:
// every iteration resolves an abbreviated commit ID against a store whose
// IDs() aborts the benchmark, so a regression back to the full-store scan
// cannot pass, and the per-lookup cost stays O(log n) — compare ns/op
// between the two store sizes (a linear scan would grow ~16×).
func BenchmarkResolveCommitPrefix(b *testing.B) {
	for _, commits := range []int{256, 4096} {
		b.Run(fmt.Sprintf("commits=%d", commits), func(b *testing.B) {
			r, ids := resolveTestRepo(b, commits)
			r.Objects = &noScanStore{Store: r.Objects, tb: b}
			// Warm the lazily-built sorted index outside the timed region.
			if _, err := r.ResolveCommitPrefix(ids[0].String()[:12]); err != nil {
				b.Fatal(err)
			}
			prefixes := make([]string, len(ids))
			for i, id := range ids {
				prefixes[i] = id.String()[:12]
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.ResolveCommitPrefix(prefixes[i%len(prefixes)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkResolveCommitPrefixOnDisk resolves abbreviated commit IDs of an
// on-disk repository through the pack's sorted in-memory index.
func BenchmarkResolveCommitPrefixOnDisk(b *testing.B) {
	build := func(b *testing.B, open func(dir string) (*Repository, error)) (*Repository, []object.ID) {
		r, err := open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		ids := make([]object.ID, 0, 512)
		for i := 0; i < 512; i++ {
			id, err := r.CommitFiles("main", map[string]FileContent{"/f.txt": File(fmt.Sprint(i))},
				CommitOptions{Author: Sig("a", "a@x", time.Unix(int64(i+1), 0)), Message: fmt.Sprint(i)})
			if err != nil {
				b.Fatal(err)
			}
			ids = append(ids, id)
		}
		return r, ids
	}
	run := func(b *testing.B, r *Repository, ids []object.ID) {
		b.Helper()
		prefixes := make([]string, len(ids))
		for i, id := range ids {
			prefixes[i] = id.String()[:12]
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := r.ResolveCommitPrefix(prefixes[i%len(prefixes)]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("pack", func(b *testing.B) {
		r, ids := build(b, OpenPackedFileRepository)
		if _, err := r.Repack(); err != nil {
			b.Fatal(err)
		}
		run(b, r, ids)
	})
}
