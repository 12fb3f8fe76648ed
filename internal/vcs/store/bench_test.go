package store

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/gitcite/gitcite/internal/vcs/object"
)

// benchBlobs returns n distinct blobs with their IDs.
func benchBlobs(b *testing.B, s Store, n int) []object.ID {
	b.Helper()
	ids := make([]object.ID, n)
	for i := range ids {
		id, err := s.Put(object.NewBlobString(fmt.Sprintf("bench blob %d", i)))
		if err != nil {
			b.Fatal(err)
		}
		ids[i] = id
	}
	return ids
}

// BenchmarkLooseTierGet reads objects a repository holds from before every
// repository wrote packs: a packed miss, then the legacy loose file.
func BenchmarkLooseTierGet(b *testing.B) {
	dir := b.TempDir()
	loose, err := newLooseWriter(dir)
	if err != nil {
		b.Fatal(err)
	}
	ids := benchBlobs(b, loose, 256)
	ps, err := NewPackStore(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer ps.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ps.Get(ids[i%len(ids)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCachedStoreGetHot(b *testing.B) {
	cs := NewCachedStore(NewMemoryStore(), 1024)
	ids := benchBlobs(b, cs, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cs.Get(ids[i%len(ids)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCachedStoreGetHotParallel is the hosting platform's steady
// state: every object cached, many concurrent readers. Sharding keeps them
// off a single LRU mutex.
func BenchmarkCachedStoreGetHotParallel(b *testing.B) {
	cs := NewCachedStore(NewMemoryStore(), 1024)
	ids := benchBlobs(b, cs, 64)
	var ctr atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			n := ctr.Add(1)
			if _, err := cs.Get(ids[int(n)%len(ids)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCachedStoreOverPackParallel layers the sharded cache over the
// pack store — the local tool's production read path.
func BenchmarkCachedStoreOverPackParallel(b *testing.B) {
	cs := NewCachedStore(newBenchPackStore(b), 1024)
	ids := benchBlobs(b, cs, 256)
	var ctr atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			n := ctr.Add(1)
			if _, err := cs.Get(ids[int(n)%len(ids)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- pack store ----

func newBenchPackStore(b *testing.B) *PackStore {
	b.Helper()
	ps, err := NewPackStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ps.Close() })
	return ps
}

// BenchmarkPackStorePutBatch appends one raw batch per iteration — the
// shape every commit and push takes through the batch API: one file append
// plus one O(batch) journaled index segment per batch, not per object and
// not per pack byte.
func BenchmarkPackStorePutBatch(b *testing.B) {
	for _, size := range []int{1, 64} {
		b.Run(fmt.Sprintf("objs=%d", size), func(b *testing.B) {
			ps := newBenchPackStore(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch := make([]Encoded, size)
				for j := range batch {
					enc := object.Encode(object.NewBlobString(fmt.Sprintf("pack put %d/%d", i, j)))
					batch[j] = Encoded{ID: object.HashBytes(enc), Enc: enc}
				}
				if err := ps.PutManyEncoded(batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// tree64: a batch of 64-entry trees, the objects a commit rebuilds
	// and the kind written as stored blocks rather than deflated.
	b.Run("tree64", func(b *testing.B) {
		const trees, width = 8, 64
		ps := newBenchPackStore(b)
		entries := make([]object.TreeEntry, width)
		for k := range entries {
			entries[k] = object.TreeEntry{Name: fmt.Sprintf("entry-%02d.txt", k), Mode: object.ModeFile}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			batch := make([]Encoded, trees)
			for j := range batch {
				for k := range entries {
					// Distinct IDs per entry and per tree, without hashing.
					binary.BigEndian.PutUint64(entries[k].ID[:], uint64(i*trees+j))
					entries[k].ID[8] = byte(k)
				}
				tr, err := object.NewTree(entries)
				if err != nil {
					b.Fatal(err)
				}
				enc := object.Encode(tr)
				batch[j] = Encoded{ID: object.HashBytes(enc), Enc: enc}
			}
			if err := ps.PutManyEncoded(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkPackStoreGet(b *testing.B) {
	ps := newBenchPackStore(b)
	ids := benchBlobs(b, ps, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ps.Get(ids[i%len(ids)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPackStoreGetParallel(b *testing.B) {
	ps := newBenchPackStore(b)
	ids := benchBlobs(b, ps, 1024)
	var ctr atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			n := ctr.Add(1)
			if _, err := ps.Get(ids[int(n)%len(ids)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPackStoreReadDuringRepack measures what a reader pays while the
// store is being repacked — the regime the two-phase concurrent fold
// exists for. A background goroutine repeatedly drops loose objects into
// the store and folds them (so every Repack does real work instead of
// taking the single-pack fast path) while parallel readers Get a hot
// working set; per-read latencies are sampled and the p99 reported. Before
// PR 5 the fold held the store mutex end to end, so the p99 here was the
// duration of an entire repack; now it is a read's ordinary cost plus at
// worst the brief in-memory swap.
func BenchmarkPackStoreReadDuringRepack(b *testing.B) {
	dir := b.TempDir()
	ps, err := NewPackStore(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer ps.Close()
	ids := benchBlobs(b, ps, 4096)

	stop := make(chan struct{})
	repacks := make(chan int, 1)
	var folding atomic.Bool
	go func() {
		n := 0
		seq := 0
		defer func() { repacks <- n }() // unblock the drain on error too
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Feed the fold: loose objects keep each Repack off the
			// single-pack fast path and exercise the loose→pack move.
			for i := 0; i < 64; i++ {
				seq++
				if _, err := (looseWriter{ps.loose}).Put(object.NewBlobString(fmt.Sprintf("loose churn %d", seq))); err != nil {
					b.Error(err)
					return
				}
			}
			folding.Store(true)
			if _, err := ps.Repack(); err != nil {
				b.Error(err)
				return
			}
			folding.Store(false)
			n++
		}
	}()

	// Latencies are sampled only for reads issued while a Repack is in
	// flight — the population that used to queue on the store mutex for
	// the remainder of the fold.
	var mu sync.Mutex
	var samples []time.Duration
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var ctr int
		local := make([]time.Duration, 0, 4096)
		for pb.Next() {
			ctr++
			mid := folding.Load()
			start := time.Now()
			if _, err := ps.Get(ids[ctr%len(ids)]); err != nil {
				b.Fatal(err)
			}
			if mid {
				local = append(local, time.Since(start))
			}
		}
		mu.Lock()
		samples = append(samples, local...)
		mu.Unlock()
	})
	b.StopTimer()
	close(stop)
	n := <-repacks
	if len(samples) > 0 {
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		b.ReportMetric(float64(samples[len(samples)*99/100].Nanoseconds()), "p99-mid-repack-ns")
		b.ReportMetric(float64(samples[len(samples)-1].Nanoseconds()), "max-mid-repack-ns")
	}
	b.ReportMetric(float64(n), "repacks")
}

// BenchmarkStoreColdOpen contrasts what a cold process pays to open a
// repository and count its objects: a packed one loads its sorted indexes
// (no object I/O); one still in the legacy loose layout walks every fanout
// directory.
func BenchmarkStoreColdOpen(b *testing.B) {
	const objs = 2048
	b.Run("pack", func(b *testing.B) {
		dir := b.TempDir()
		seed, err := NewPackStore(dir)
		if err != nil {
			b.Fatal(err)
		}
		benchBlobs(b, seed, objs)
		if _, err := seed.Repack(); err != nil {
			b.Fatal(err)
		}
		seed.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ps, err := NewPackStore(dir)
			if err != nil {
				b.Fatal(err)
			}
			if n, _ := ps.Len(); n != objs {
				b.Fatalf("Len = %d, want %d", n, objs)
			}
			ps.Close()
		}
	})
	b.Run("loose", func(b *testing.B) {
		dir := b.TempDir()
		seed, err := newLooseWriter(dir)
		if err != nil {
			b.Fatal(err)
		}
		benchBlobs(b, seed, objs)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ps, err := NewPackStore(dir)
			if err != nil {
				b.Fatal(err)
			}
			if n, _ := ps.Len(); n != objs {
				b.Fatalf("Len = %d, want %d", n, objs)
			}
			ps.Close()
		}
	})
}
