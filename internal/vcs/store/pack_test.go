package store

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/gitcite/gitcite/internal/vcs/object"
)

// randomHistory writes a deterministic pseudo-random commit history
// (blobs → nested trees → a commit chain) into s and returns the tip.
// Everything is a pure function of seed.
func randomHistory(t *testing.T, s Store, seed int64) object.ID {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var parent object.ID
	var tip object.ID
	nCommits := 5 + rng.Intn(6)
	for c := 0; c < nCommits; c++ {
		// A two-level tree with a random number of files per directory.
		var rootEntries []object.TreeEntry
		nDirs := 1 + rng.Intn(3)
		for d := 0; d < nDirs; d++ {
			var sub []object.TreeEntry
			nFiles := 1 + rng.Intn(4)
			for f := 0; f < nFiles; f++ {
				data := fmt.Sprintf("seed=%d commit=%d dir=%d file=%d pad=%d", seed, c, d, f, rng.Intn(3))
				id, err := s.Put(object.NewBlob([]byte(data)))
				if err != nil {
					t.Fatal(err)
				}
				sub = append(sub, object.TreeEntry{Name: fmt.Sprintf("f%d.txt", f), Mode: object.ModeFile, ID: id})
			}
			subTree, err := object.NewTree(sub)
			if err != nil {
				t.Fatal(err)
			}
			subID, err := s.Put(subTree)
			if err != nil {
				t.Fatal(err)
			}
			rootEntries = append(rootEntries, object.TreeEntry{Name: fmt.Sprintf("d%d", d), Mode: object.ModeDir, ID: subID})
		}
		root, err := object.NewTree(rootEntries)
		if err != nil {
			t.Fatal(err)
		}
		rootID, err := s.Put(root)
		if err != nil {
			t.Fatal(err)
		}
		commit := &object.Commit{
			TreeID:    rootID,
			Author:    object.NewSignature("p", "p@x", time.Unix(int64(c)+1, 0)),
			Committer: object.NewSignature("p", "p@x", time.Unix(int64(c)+1, 0)),
			Message:   fmt.Sprintf("commit %d", c),
		}
		if !parent.IsZero() {
			commit.Parents = []object.ID{parent}
		}
		cid, err := s.Put(commit)
		if err != nil {
			t.Fatal(err)
		}
		parent, tip = cid, cid
	}
	return tip
}

// closureFingerprint walks the closure of tip and hashes every canonical
// encoding in sorted-ID order — equal fingerprints mean the two stores hold
// bit-identical object closures.
func closureFingerprint(t *testing.T, s Store, tip object.ID) [32]byte {
	t.Helper()
	encs := map[object.ID][]byte{}
	err := WalkClosure(s, func(id object.ID, o object.Object) error {
		enc := object.Encode(o)
		if object.HashBytes(enc) != id {
			t.Fatalf("object %s re-encodes to a different hash", id.Short())
		}
		encs[id] = enc
		return nil
	}, tip)
	if err != nil {
		t.Fatalf("closure walk: %v", err)
	}
	ids := make([]object.ID, 0, len(encs))
	for id := range encs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return idLess(ids[i], ids[j]) })
	h := sha256.New()
	for _, id := range ids {
		h.Write(id[:])
		h.Write(encs[id])
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// pushClosure lands tip's closure in dst the way a push or a commit does:
// raw batches of canonical encodings, each with the decoded object riding
// along. It returns how many of the objects were blobs.
func pushClosure(t *testing.T, dst, src Store, tip object.ID, rng *rand.Rand) (blobs int) {
	t.Helper()
	var batch []Encoded
	flush := func() {
		if err := PutManyEncoded(dst, batch); err != nil {
			t.Fatalf("PutManyEncoded: %v", err)
		}
		batch = nil
	}
	size := 1 + rng.Intn(8)
	err := WalkClosure(src, func(id object.ID, o object.Object) error {
		if o.Type() == object.TypeBlob {
			blobs++
		}
		batch = append(batch, Encoded{ID: id, Enc: object.Encode(o), Obj: o})
		if len(batch) == size {
			flush()
			size = 1 + rng.Intn(8)
		}
		return nil
	}, tip)
	if err != nil {
		t.Fatalf("closure walk: %v", err)
	}
	flush()
	return blobs
}

func newTestPackStore(t *testing.T, dir string) *PackStore {
	t.Helper()
	ps, err := NewPackStore(dir)
	if err != nil {
		t.Fatalf("NewPackStore: %v", err)
	}
	t.Cleanup(func() { ps.Close() })
	return ps
}

// TestClosureBitIdenticalAcrossStores is the cross-backend property suite:
// the same random history transferred into a MemoryStore, into the legacy
// loose layout read back through a PackStore, and into a PackStore —
// through a Repack and a cold reopen of the pack, and out of a write-through
// cache that never read what it serves — always yields bit-identical object
// closures.
func TestClosureBitIdenticalAcrossStores(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			mem := NewMemoryStore()
			tip := randomHistory(t, mem, seed)
			want := closureFingerprint(t, mem, tip)

			fileDir := filepath.Join(t.TempDir(), "objects")
			fs, err := newLooseWriter(fileDir)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := CopyClosure(fs, mem, tip); err != nil {
				t.Fatal(err)
			}
			if got := closureFingerprint(t, newTestPackStore(t, fileDir), tip); got != want {
				t.Error("loose closure read through a PackStore differs from MemoryStore")
			}

			packDir := filepath.Join(t.TempDir(), "objects")
			ps := newTestPackStore(t, packDir)
			if _, err := CopyClosure(ps, mem, tip); err != nil {
				t.Fatal(err)
			}
			if got := closureFingerprint(t, ps, tip); got != want {
				t.Error("PackStore closure differs from MemoryStore")
			}

			if _, err := ps.Repack(); err != nil {
				t.Fatalf("Repack: %v", err)
			}
			if got := closureFingerprint(t, ps, tip); got != want {
				t.Error("PackStore closure differs after Repack")
			}
			if ps.Stats().Packs != 1 {
				t.Errorf("packs after Repack = %d, want 1", ps.Stats().Packs)
			}

			if err := ps.Close(); err != nil {
				t.Fatal(err)
			}
			reopened := newTestPackStore(t, packDir)
			if got := closureFingerprint(t, reopened, tip); got != want {
				t.Error("PackStore closure differs after reopen")
			}

			// Write-through: a cache in front of a fresh pack serves the
			// commits and trees of a pushed closure without going back to
			// the pack for them, and what it serves is what a cold open of
			// the same directory decodes.
			wtDir := filepath.Join(t.TempDir(), "objects")
			wtPack := newTestPackStore(t, wtDir)
			wt := NewCachedStore(wtPack, 4096)
			blobs := pushClosure(t, wt, mem, tip, rand.New(rand.NewSource(seed)))
			if got := closureFingerprint(t, wt, tip); got != want {
				t.Error("write-through cache serves a closure that differs from MemoryStore")
			}
			if _, misses := wt.Stats(); misses != uint64(blobs) {
				t.Errorf("closure walk went below the cache %d times, want once per blob (%d): commits and trees are written through",
					misses, blobs)
			}
			if err := wtPack.Close(); err != nil {
				t.Fatal(err)
			}
			if got := closureFingerprint(t, newTestPackStore(t, wtDir), tip); got != want {
				t.Error("cold open differs from what the write-through cache served")
			}

			// Incremental-index crash orders: each simulated crash leaves a
			// store that recovers to the bit-identical closure, never
			// acknowledges the torn-off batch, and keeps accepting writes.
			for _, order := range []string{"torn-segment-tail", "segment-present-base-idx-stale", "segment-written-pack-bytes-missing"} {
				t.Run(order, func(t *testing.T) {
					dir := filepath.Join(t.TempDir(), "objects")
					ps := newTestPackStore(t, dir)
					if _, err := CopyClosure(ps, mem, tip); err != nil {
						t.Fatal(err)
					}
					// One junk batch outside the closure, so a crash that
					// tears it off cannot touch closure bit-identity.
					junk := make([]Encoded, 5)
					junkIDs := make([]object.ID, len(junk))
					for i := range junk {
						enc := object.Encode(object.NewBlobString(fmt.Sprintf("junk seed=%d i=%d", seed, i)))
						junk[i] = Encoded{ID: object.HashBytes(enc), Enc: enc}
						junkIDs[i] = junk[i].ID
					}
					packPath := ps.cur.path
					sizeBefore := ps.cur.size
					segSizeBefore := ps.curSegSize
					entriesBefore := append([]packEntry(nil), ps.curEntries...)
					if err := ps.PutManyEncoded(junk); err != nil {
						t.Fatal(err)
					}
					if err := ps.Close(); err != nil {
						t.Fatal(err)
					}

					wantJunk := false
					switch order {
					case "torn-segment-tail":
						// The junk batch's segment never finished landing:
						// chop it mid-entry. The batch was never
						// acknowledged, so recovery drops it.
						if err := os.Truncate(segPathFor(packPath), segSizeBefore+segHeaderSize+3); err != nil {
							t.Fatal(err)
						}
					case "segment-present-base-idx-stale":
						// A base index merged up to the pre-junk prefix (as
						// a roll or an interrupted open-merge would leave
						// it), with the junk batch only in the journal:
						// replay must skip the merged range and apply the
						// tail.
						if _, err := writePackIndex(idxPathFor(packPath), entriesBefore, sizeBefore); err != nil {
							t.Fatal(err)
						}
						wantJunk = true
					case "segment-written-pack-bytes-missing":
						// Without fsync the journal can persist before the
						// pack bytes; after the crash the segment claims
						// records the pack never got. Replay must refuse it.
						if err := os.Truncate(packPath, sizeBefore); err != nil {
							t.Fatal(err)
						}
					}

					survivor := newTestPackStore(t, dir)
					if got := closureFingerprint(t, survivor, tip); got != want {
						t.Errorf("closure differs after %s recovery", order)
					}
					for _, id := range junkIDs {
						if ok, _ := survivor.Has(id); ok != wantJunk {
							t.Errorf("junk object present=%v after %s, want %v", ok, order, wantJunk)
						}
					}
					if segs, _ := filepath.Glob(filepath.Join(dir, packDirName, "*.seg")); len(segs) != 0 {
						t.Errorf("%d journals remain after recovery, want 0 (merged)", len(segs))
					}
					if _, err := survivor.Put(object.NewBlobString("write after " + order)); err != nil {
						t.Errorf("Put after %s: %v", order, err)
					}
					// The recovered state must itself survive another cold
					// open bit-identically.
					if err := survivor.Close(); err != nil {
						t.Fatal(err)
					}
					again := newTestPackStore(t, dir)
					if got := closureFingerprint(t, again, tip); got != want {
						t.Errorf("closure differs on second open after %s", order)
					}
				})
			}
		})
	}
}

// TestPackStoreAppendIdxBytesPerBatch pins the incremental-index bound the
// PR 5 tentpole exists for: one append batch persists exactly one O(batch)
// journal segment, independent of how many objects the pack already holds.
func TestPackStoreAppendIdxBytesPerBatch(t *testing.T) {
	const batchSize = 64
	wantDelta := int64(segHeaderSize + batchSize*segEntrySize + segTrailerSize)
	for _, preload := range []int{0, 1000, 8000} {
		dir := filepath.Join(t.TempDir(), "objects")
		ps := newTestPackStore(t, dir)
		for start := 0; start < preload; start += 500 {
			n := min(500, preload-start)
			batch := make([]Encoded, n)
			for j := 0; j < n; j++ {
				enc := object.Encode(object.NewBlobString(fmt.Sprintf("pre %d", start+j)))
				batch[j] = Encoded{ID: object.HashBytes(enc), Enc: enc}
			}
			if err := ps.PutManyEncoded(batch); err != nil {
				t.Fatal(err)
			}
		}
		before := ps.IdxBytesWritten()
		batch := make([]Encoded, batchSize)
		for j := range batch {
			enc := object.Encode(object.NewBlobString(fmt.Sprintf("probe %d", j)))
			batch[j] = Encoded{ID: object.HashBytes(enc), Enc: enc}
		}
		if err := ps.PutManyEncoded(batch); err != nil {
			t.Fatal(err)
		}
		delta := ps.IdxBytesWritten() - before
		if delta != wantDelta {
			t.Errorf("preload=%d: %d idx bytes for a %d-object batch, want %d (O(batch), not O(pack))",
				preload, delta, batchSize, wantDelta)
		}
	}
}

// TestRepackBuildPhaseHoldsNoLock proves the two-phase Repack keeps the
// store lock free while it builds the consolidated pack: with the build
// phase suspended via the test hook, reads, prefix searches and writes all
// complete. Were the lock held for the fold (the pre-PR-5 behaviour),
// every probe below would block until the watchdog fails the test.
func TestRepackBuildPhaseHoldsNoLock(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "objects")
	loose, err := newLooseWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	looseTip := randomHistory(t, loose, 41)
	looseCount, _ := loose.Len()
	ps := newTestPackStore(t, dir)
	packedTip := randomHistory(t, ps, 43)

	entered := make(chan struct{})
	release := make(chan struct{})
	repackBuildHook = func() {
		close(entered)
		<-release
	}
	defer func() { repackBuildHook = nil }()

	type result struct {
		folded int
		err    error
	}
	done := make(chan result, 1)
	go func() {
		folded, err := ps.Repack()
		done <- result{folded, err}
	}()
	<-entered

	probes := make(chan error, 1)
	var probedID object.ID
	go func() {
		probes <- func() error {
			if _, err := ps.Get(looseTip); err != nil {
				return fmt.Errorf("Get(loose) during build: %w", err)
			}
			if _, err := ps.Get(packedTip); err != nil {
				return fmt.Errorf("Get(packed) during build: %w", err)
			}
			if ok, err := ps.Has(packedTip); err != nil || !ok {
				return fmt.Errorf("Has during build = %v, %v", ok, err)
			}
			if ids, err := ps.IDsByPrefix(packedTip.String()[:8], 0); err != nil || len(ids) == 0 {
				return fmt.Errorf("IDsByPrefix during build = %d ids, %v", len(ids), err)
			}
			enc := object.Encode(object.NewBlobString("written mid-repack"))
			probedID = object.HashBytes(enc)
			if err := ps.PutManyEncoded([]Encoded{{ID: probedID, Enc: enc}}); err != nil {
				return fmt.Errorf("PutManyEncoded during build: %w", err)
			}
			return nil
		}()
	}()
	select {
	case err := <-probes:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("store access blocked during Repack's build phase: the lock is not free")
	}
	close(release)

	res := <-done
	if res.err != nil {
		t.Fatalf("Repack: %v", res.err)
	}
	if res.folded != looseCount {
		t.Errorf("Repack folded %d, want %d", res.folded, looseCount)
	}
	// Everything — both closures and the object written mid-build — must
	// survive the swap; the mid-build write lives in a survivor pack.
	for _, tip := range []object.ID{looseTip, packedTip} {
		if _, err := ps.Get(tip); err != nil {
			t.Errorf("Get(%s) after repack: %v", tip.Short(), err)
		}
	}
	if ok, _ := ps.Has(probedID); !ok {
		t.Error("object written during the build phase lost by the swap")
	}
	if got := ps.Stats().Packs; got != 2 {
		t.Errorf("packs after repack = %d, want 2 (consolidated pack + mid-build survivor)", got)
	}
}

// TestPackStoreIgnoresOrphanStaleIdx plants crash debris — an orphan .idx
// whose pack no longer exists — at the number the next pack will take. The
// new pack must not adopt it as its base index: with per-batch journaling,
// a stale base would break replay on the coverage gap and silently discard
// every acknowledged object (createPack clears such debris).
func TestPackStoreIgnoresOrphanStaleIdx(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "objects")
	if err := os.MkdirAll(filepath.Join(dir, packDirName), 0o755); err != nil {
		t.Fatal(err)
	}
	// A well-formed index claiming one bogus record, with no pack on disk.
	var ghost object.ID
	ghost[0] = 0x42
	orphan := []packEntry{{id: ghost, off: int64(len(packMagic)) + packRecHeader, clen: 7}}
	orphanPath := filepath.Join(dir, packDirName, "pack-000001.idx")
	if _, err := writePackIndex(orphanPath, orphan, int64(len(packMagic))+packRecHeader+7); err != nil {
		t.Fatal(err)
	}

	ps := newTestPackStore(t, dir)
	tip := randomHistory(t, ps, 53)
	want := closureFingerprint(t, ps, tip)
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	reopened := newTestPackStore(t, dir)
	if got := closureFingerprint(t, reopened, tip); got != want {
		t.Error("closure differs after reopening a pack created over an orphan stale idx")
	}
	if ok, _ := reopened.Has(ghost); ok {
		t.Error("ghost entry from the orphan idx reported present")
	}
}

// TestRepackFastPathRewritesNothing: a store already consolidated to one
// pack with nothing loose must return from Repack without touching disk.
func TestRepackFastPathRewritesNothing(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "objects")
	loose, err := newLooseWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	tip := randomHistory(t, loose, 47)
	want := closureFingerprint(t, loose, tip)
	ps := newTestPackStore(t, dir)
	if _, err := ps.Repack(); err != nil {
		t.Fatal(err)
	}
	if ps.Stats().Packs != 1 {
		t.Fatalf("packs after consolidating repack = %d, want 1", ps.Stats().Packs)
	}
	packs, _ := filepath.Glob(filepath.Join(dir, packDirName, "*.pack"))
	if len(packs) != 1 {
		t.Fatalf("%d pack files on disk, want 1", len(packs))
	}
	statBefore, err := os.Stat(packs[0])
	if err != nil {
		t.Fatal(err)
	}
	idxBefore := ps.IdxBytesWritten()

	folded, err := ps.Repack()
	if err != nil {
		t.Fatal(err)
	}
	if folded != 0 {
		t.Errorf("fast-path Repack folded %d, want 0", folded)
	}
	if got := ps.IdxBytesWritten(); got != idxBefore {
		t.Errorf("fast-path Repack wrote %d index bytes, want 0", got-idxBefore)
	}
	statAfter, err := os.Stat(packs[0])
	if err != nil {
		t.Fatal(err)
	}
	if statAfter.Size() != statBefore.Size() || !statAfter.ModTime().Equal(statBefore.ModTime()) {
		t.Error("fast-path Repack rewrote the only pack")
	}
	if again, _ := filepath.Glob(filepath.Join(dir, packDirName, "*.pack")); len(again) != 1 {
		t.Errorf("%d pack files after fast-path Repack, want 1", len(again))
	}
	if got := closureFingerprint(t, ps, tip); got != want {
		t.Error("closure differs after fast-path Repack")
	}
}

func TestPackStoreReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "objects")
	ps := newTestPackStore(t, dir)
	tip := randomHistory(t, ps, 7)
	want := closureFingerprint(t, ps, tip)
	n, err := ps.Len()
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}

	again := newTestPackStore(t, dir)
	if got := closureFingerprint(t, again, tip); got != want {
		t.Error("closure changed across reopen")
	}
	if n2, _ := again.Len(); n2 != n {
		t.Errorf("Len after reopen = %d, want %d", n2, n)
	}
	// New writes after a reopen land in a fresh pack and coexist with the
	// old one.
	extra, err := again.Put(object.NewBlobString("post-reopen object"))
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := again.Has(extra); !ok {
		t.Error("object written after reopen not found")
	}
}

// TestPackStoreIndexRebuild deletes and corrupts the persisted .idx and
// checks the store recovers it from the pack records.
func TestPackStoreIndexRebuild(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "objects")
	ps := newTestPackStore(t, dir)
	tip := randomHistory(t, ps, 11)
	want := closureFingerprint(t, ps, tip)
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	// A first reopen merges the segment journal into the base index and
	// deletes the journal, so the pack records are now the only other copy
	// of the index's information.
	merged := newTestPackStore(t, dir)
	if err := merged.Close(); err != nil {
		t.Fatal(err)
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, packDirName, "*.seg")); len(segs) != 0 {
		t.Fatalf("%d journals remain after the merging reopen, want 0", len(segs))
	}

	idxs, err := filepath.Glob(filepath.Join(dir, packDirName, "*.idx"))
	if err != nil || len(idxs) == 0 {
		t.Fatalf("no idx files found (err=%v)", err)
	}
	for _, p := range idxs {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	rebuilt := newTestPackStore(t, dir)
	if got := closureFingerprint(t, rebuilt, tip); got != want {
		t.Error("closure differs after idx rebuild")
	}
	if err := rebuilt.Close(); err != nil {
		t.Fatal(err)
	}
	// The rebuild must have re-persisted the index.
	idxs, _ = filepath.Glob(filepath.Join(dir, packDirName, "*.idx"))
	if len(idxs) == 0 {
		t.Fatal("rebuild did not re-persist the idx")
	}

	// Corrupt (truncate) an idx: the open must fall back to the pack scan.
	if err := os.WriteFile(idxs[0], []byte(packIdxMagic+"garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	recovered := newTestPackStore(t, dir)
	if got := closureFingerprint(t, recovered, tip); got != want {
		t.Error("closure differs after corrupt-idx recovery")
	}
}

// TestPackStoreTornTailIgnored simulates a crash mid-append: trailing
// garbage after the last complete record must be ignored on open, stored
// objects stay readable, and later writes go to a fresh pack.
func TestPackStoreTornTailIgnored(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "objects")
	ps := newTestPackStore(t, dir)
	tip := randomHistory(t, ps, 13)
	want := closureFingerprint(t, ps, tip)
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}

	packs, _ := filepath.Glob(filepath.Join(dir, packDirName, "*.pack"))
	if len(packs) == 0 {
		t.Fatal("no pack files")
	}
	// A torn record: a full ID, a length claiming more bytes than follow.
	var torn []byte
	var fakeID object.ID
	fakeID[0] = 0xab
	torn = append(torn, fakeID[:]...)
	var lenb [4]byte
	binary.BigEndian.PutUint32(lenb[:], 1<<20)
	torn = append(torn, lenb[:]...)
	torn = append(torn, []byte("partial payload")...)
	f, err := os.OpenFile(packs[0], os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()
	// The persisted idx covers only a prefix of the file now; that prefix
	// is authoritative and the torn bytes are dead.
	survivor := newTestPackStore(t, dir)
	if got := closureFingerprint(t, survivor, tip); got != want {
		t.Error("closure differs after torn-tail recovery")
	}
	if ok, _ := survivor.Has(fakeID); ok {
		t.Error("torn record's ID reported present")
	}
	if _, err := survivor.Put(object.NewBlobString("after torn tail")); err != nil {
		t.Fatalf("Put after torn tail: %v", err)
	}
	if survivor.Stats().Packs < 2 {
		t.Errorf("packs = %d; writes after a torn tail must start a fresh pack", survivor.Stats().Packs)
	}
	if err := survivor.Close(); err != nil {
		t.Fatal(err)
	}
	// The prefix-covering idx must load cleanly (no rescan-forever), and
	// the pack keeps its bytes — recovery never truncates, so a mid-pack
	// corruption can not take later records with it.
	st, err := os.Stat(packs[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadPackIndex(idxPathFor(packs[0]), st.Size()); err != nil {
		t.Errorf("prefix-covering idx judged unusable: %v", err)
	}
	// The same store also reopens through the idx-load path with the torn
	// bytes still in place.
	again := newTestPackStore(t, dir)
	if got := closureFingerprint(t, again, tip); got != want {
		t.Error("closure differs on second open after torn tail")
	}
}

// TestPackStoreRollsOverLargePacks checks the current pack stops accepting
// appends at packRollEntries and later batches open a fresh pack — the
// bound that keeps per-batch index rewrites from growing with total store
// size — while everything stays readable and Repack still consolidates.
func TestPackStoreRollsOverLargePacks(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "objects")
	ps := newTestPackStore(t, dir)
	// Rollover triggers at the first batch that begins at or past the
	// threshold, so overshoot by a couple of batches.
	total := packRollEntries + 1100
	var ids []object.ID
	for start := 0; start < total; start += 500 {
		n := min(500, total-start)
		batch := make([]Encoded, n)
		for j := 0; j < n; j++ {
			enc := object.Encode(object.NewBlobString(fmt.Sprintf("roll %d", start+j)))
			batch[j] = Encoded{ID: object.HashBytes(enc), Enc: enc}
			ids = append(ids, batch[j].ID)
		}
		if err := ps.PutManyEncoded(batch); err != nil {
			t.Fatal(err)
		}
	}
	if ps.Stats().Packs < 2 {
		t.Errorf("packs = %d after %d objects, want >= 2 (rollover at %d)", ps.Stats().Packs, total, packRollEntries)
	}
	for _, i := range []int{0, packRollEntries - 1, packRollEntries, total - 1} {
		if ok, _ := ps.Has(ids[i]); !ok {
			t.Errorf("object %d missing after rollover", i)
		}
	}
	if n, _ := ps.Len(); n != total {
		t.Errorf("Len = %d, want %d", n, total)
	}
	if _, err := ps.Repack(); err != nil {
		t.Fatal(err)
	}
	if ps.Stats().Packs != 1 {
		t.Errorf("packs after Repack = %d, want 1", ps.Stats().Packs)
	}
	if n, _ := ps.Len(); n != total {
		t.Errorf("Len after Repack = %d, want %d", n, total)
	}
}

// TestRepackFoldsLooseObjects opens a PackStore over an existing legacy
// loose layout and checks Repack absorbs every loose object
// byte-for-byte and removes the loose files.
func TestRepackFoldsLooseObjects(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "objects")
	loose, err := newLooseWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	tip := randomHistory(t, loose, 17)
	looseCount, _ := loose.Len()
	want := closureFingerprint(t, loose, tip)

	ps := newTestPackStore(t, dir)
	// Loose objects are readable through the pack store before any repack.
	if got := closureFingerprint(t, ps, tip); got != want {
		t.Fatal("loose closure not readable through PackStore")
	}
	// Mix in some already-packed objects.
	packedBlob, err := ps.Put(object.NewBlobString("already packed"))
	if err != nil {
		t.Fatal(err)
	}

	folded, err := ps.Repack()
	if err != nil {
		t.Fatalf("Repack: %v", err)
	}
	if folded != looseCount {
		t.Errorf("Repack folded %d loose objects, want %d", folded, looseCount)
	}
	if got := closureFingerprint(t, ps, tip); got != want {
		t.Error("closure differs after folding loose objects")
	}
	if ok, _ := ps.Has(packedBlob); !ok {
		t.Error("previously packed object lost by Repack")
	}
	if ids, _ := loose.IDs(); len(ids) != 0 {
		t.Errorf("%d loose objects remain after Repack, want 0", len(ids))
	}
	if ps.Stats().Packs != 1 {
		t.Errorf("packs = %d, want 1", ps.Stats().Packs)
	}
	// Emptied fanout directories are pruned.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() && len(e.Name()) == 2 {
			t.Errorf("fanout dir %s not pruned after Repack", e.Name())
		}
	}

	// A second Repack with nothing loose and one pack is a no-op.
	folded, err = ps.Repack()
	if err != nil {
		t.Fatal(err)
	}
	if folded != 0 {
		t.Errorf("second Repack folded %d, want 0", folded)
	}
}

// TestPackStoreConcurrentReadersDuringRepack hammers Get/Has/HasMany from
// several goroutines while Repack folds loose objects and consolidates
// packs (run with -race): readers must never see a transient miss or a
// closed pack file while objects relocate.
func TestPackStoreConcurrentReadersDuringRepack(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "objects")
	loose, err := newLooseWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	looseTip := randomHistory(t, loose, 29)
	looseIDs, err := closureIDs(loose, looseTip)
	if err != nil {
		t.Fatal(err)
	}
	ps := newTestPackStore(t, dir)
	packedTip := randomHistory(t, ps, 31)
	packedIDs, err := closureIDs(ps, packedTip)
	if err != nil {
		t.Fatal(err)
	}
	all := append(append([]object.ID(nil), looseIDs...), packedIDs...)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := all[(w*31+i)%len(all)]
				if _, err := ps.Get(id); err != nil {
					t.Errorf("Get(%s) during repack: %v", id.Short(), err)
					return
				}
				if ok, err := ps.Has(id); err != nil || !ok {
					t.Errorf("Has(%s) during repack = %v, %v", id.Short(), ok, err)
					return
				}
				if have, err := ps.HasMany(all[:8]); err != nil {
					t.Errorf("HasMany during repack: %v", err)
					return
				} else {
					for j, ok := range have {
						if !ok {
							t.Errorf("HasMany missed %s during repack", all[j].Short())
							return
						}
					}
				}
				if got, err := ps.IDsByPrefix(id.String()[:16], 0); err != nil || len(got) == 0 {
					t.Errorf("IDsByPrefix(%s) during repack = %d ids, %v", id.Short(), len(got), err)
					return
				}
			}
		}(w)
	}
	if _, err := ps.Repack(); err != nil {
		t.Errorf("Repack: %v", err)
	}
	close(stop)
	wg.Wait()
}

// TestPackStoreToleratesTornPackHeader simulates a crash between pack
// creation and the header landing: an empty (or sub-magic) pack file must
// be skipped on open, not brick the store, while a full-length wrong magic
// still reports corruption.
func TestPackStoreToleratesTornPackHeader(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "objects")
	ps := newTestPackStore(t, dir)
	tip := randomHistory(t, ps, 37)
	want := closureFingerprint(t, ps, tip)
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	packDir := filepath.Join(dir, packDirName)
	if err := os.WriteFile(filepath.Join(packDir, "pack-000090.pack"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(packDir, "pack-000091.pack"), []byte("GCP"), 0o644); err != nil {
		t.Fatal(err)
	}
	survivor := newTestPackStore(t, dir)
	if got := closureFingerprint(t, survivor, tip); got != want {
		t.Error("closure differs after ignoring torn pack headers")
	}
	if _, err := survivor.Put(object.NewBlobString("after torn header")); err != nil {
		t.Fatalf("Put after torn header: %v", err)
	}
	if err := survivor.Close(); err != nil {
		t.Fatal(err)
	}
	// A full-length bogus magic is corruption, not a torn creation.
	if err := os.WriteFile(filepath.Join(packDir, "pack-000092.pack"), []byte("XXXXXXXXgarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if bad, err := NewPackStore(dir); err == nil {
		bad.Close()
		t.Error("open succeeded over a pack with corrupt magic")
	}
}

// TestPackStoreRejectsCorruptRecord flips a payload byte and checks Get
// reports the hash-verification failure instead of returning garbage.
func TestPackStoreRejectsCorruptRecord(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "objects")
	ps := newTestPackStore(t, dir)
	id, err := ps.Put(object.NewBlobString("to be corrupted in place"))
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	packs, _ := filepath.Glob(filepath.Join(dir, packDirName, "*.pack"))
	data, err := os.ReadFile(packs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff // corrupt the final payload byte
	if err := os.WriteFile(packs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	corrupted := newTestPackStore(t, dir)
	if _, err := corrupted.Get(id); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Errorf("Get of corrupted record: err = %v, want corruption report", err)
	}
}

// TestPackStoreAsksLooseTierOnlyWhenItHoldsObjects: a store opened with no
// loose objects never looks one up — its loose tier is pointed at a path
// under a regular file, where any lookup fails with ENOTDIR, and puts, Has,
// HasMany and Get misses all still succeed. A store that does hold loose
// objects still asks that tier on each of them.
func TestPackStoreAsksLooseTierOnlyWhenItHoldsObjects(t *testing.T) {
	blob := func(s string) Encoded {
		enc := object.Encode(object.NewBlobString(s))
		return Encoded{ID: object.HashBytes(enc), Enc: enc}
	}
	missing := blob("never stored").ID
	open := func(t *testing.T, loose bool) *PackStore {
		t.Helper()
		dir := t.TempDir()
		if loose {
			fs, err := newLooseWriter(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fs.Put(object.NewBlobString("stored loose")); err != nil {
				t.Fatal(err)
			}
		}
		s, err := NewPackStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		if got, want := s.LooseCount(), map[bool]int{false: 0, true: 1}[loose]; got != want {
			t.Fatalf("LooseCount = %d, want %d", got, want)
		}
		poison := filepath.Join(t.TempDir(), "not-a-dir")
		if err := os.WriteFile(poison, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		s.loose = &looseStore{root: poison}
		return s
	}

	t.Run("no loose objects", func(t *testing.T) {
		s := open(t, false)
		for i := 0; i < 3; i++ {
			batch := []Encoded{blob(fmt.Sprint("a", i)), blob(fmt.Sprint("b", i))}
			if err := s.PutManyEncoded(batch); err != nil {
				t.Fatalf("put %d asked the loose tier: %v", i, err)
			}
			if ok, err := s.Has(batch[0].ID); !ok || err != nil {
				t.Fatalf("Has of a put object: %v, %v", ok, err)
			}
		}
		if ok, err := s.Has(missing); ok || err != nil {
			t.Errorf("Has miss: %v, %v; want false and no loose lookup", ok, err)
		}
		if have, err := s.HasMany([]object.ID{missing, blob("a0").ID}); err != nil || have[0] || !have[1] {
			t.Errorf("HasMany with a miss: %v, %v; want [false true] and no loose lookup", have, err)
		}
		if _, err := s.Get(missing); err != ErrNotFound {
			t.Errorf("Get miss: %v, want ErrNotFound and no loose lookup", err)
		}
	})

	t.Run("loose objects", func(t *testing.T) {
		s := open(t, true)
		if err := s.PutManyEncoded([]Encoded{blob("c")}); err == nil {
			t.Error("put did not ask the loose tier")
		}
		if _, err := s.Has(missing); err == nil {
			t.Error("Has miss did not ask the loose tier")
		}
		if _, err := s.HasMany([]object.ID{missing}); err == nil {
			t.Error("HasMany miss did not ask the loose tier")
		}
		if _, err := s.Get(missing); err == nil || err == ErrNotFound {
			t.Errorf("Get miss did not ask the loose tier: %v", err)
		}
	})
}
