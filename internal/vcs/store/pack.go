// pack.go implements pack-based object storage: instead of one loose file
// per object, objects are appended to a small number of pack files as
// zlib-compressed, length-prefixed records, with a sorted fan-out ID index
// (IDIndex) persisted alongside each pack. Cold opens load the indexes, not
// the objects; lookups are an O(1) map hit backed by one pread; abbreviated
// IDs resolve through the ordered index in O(log n).
//
// On-disk layout (sharing the root of a loose FileStore, like Git):
//
//	root/ab/cdef…        loose objects (legacy; read fallback, Repack input)
//	root/pack/pack-000001.pack
//	root/pack/pack-000001.idx
//	root/pack/pack-000001.seg   (current pack only: per-batch index segments)
//
// Pack file: an 8-byte magic header followed by records of
// `id[32] | clen uint32 BE | clen bytes of zlib(canonical encoding)`.
// Records are append-only and never rewritten. Index file: magic, the pack
// byte-size it covers, entry count, a 256-way fanout table and the sorted
// `id[32] | offset uint64 | clen uint32` entries. The index is written in
// two tiers: the sorted base `.idx` (a snapshot covering a prefix of the
// pack) and the append-only `.seg` segment journal (one O(batch) segment
// per append batch — see packseg.go), merged into the base lazily when the
// pack is opened or rolls, so a mutation batch never rewrites index state
// proportional to the pack. A missing or corrupt index is recovered from
// the journal, or failing that by scanning the pack's records; an index
// covering only a prefix of the pack is valid (the tail is dead bytes from
// a torn append whose write was never acknowledged); later writes go to a
// fresh pack, so partial bytes are never extended.
package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/gitcite/gitcite/internal/vcs/object"
)

const (
	packDirName  = "pack"
	packMagic    = "GCPK\x00\x00\x00\x01"
	packIdxMagic = "GCIX\x00\x00\x00\x01"
	// packRecHeader is the fixed per-record overhead: the object ID plus the
	// big-endian uint32 length of the compressed payload.
	packRecHeader = object.IDSize + 4
	// packRollEntries caps how many objects the current pack accepts before
	// appends roll over to a fresh pack. Rolling bounds pack file sizes and
	// the cost of the one base-index merge a finished pack pays; Repack
	// consolidates the rolled packs later.
	packRollEntries = 8192
)

// packRef locates one object inside one pack.
type packRef struct {
	pack *packFile
	off  int64 // offset of the compressed payload
	clen uint32
}

// packEntry is one object of one pack, as persisted in the .idx file.
type packEntry struct {
	id   object.ID
	off  int64
	clen uint32
}

// packFile is one on-disk pack: a read handle plus the byte size its loaded
// entries cover.
type packFile struct {
	path string
	f    *os.File
	size int64 // bytes covered by complete records (header included)
}

// PackStore stores objects in append-only pack files with sorted indexes,
// reading through to a loose FileStore at the same root for objects that
// predate packing. It implements Store, BatchStore, RawBatchStore and
// PrefixSearcher and is safe for concurrent use: reads share an RLock and
// one pread; writes serialise on the mutex, appending to the store's
// current pack and journaling the batch's index entries. Repack runs
// concurrently with both — see Repack.
type PackStore struct {
	root  string
	loose *FileStore

	mu    sync.RWMutex
	packs []*packFile
	refs  map[object.ID]packRef
	// cur is the pack this store instance appends to (created on first
	// write; packs from earlier opens are never extended, so a torn tail
	// left by a crash can simply be ignored). curSeg is its open segment
	// journal and curSegSize the journal bytes acknowledged so far.
	cur        *packFile
	curEntries []packEntry
	curSeg     *os.File
	curSegSize int64

	gen  uint64 // bumped per newly packed object; invalidates the index
	lazy lazyIDIndex

	// repackMu serialises whole-store maintenance (Repack, Close) without
	// blocking readers or appenders, which only take mu.
	repackMu sync.Mutex
	// idxBytes counts index bytes persisted (segments and base-index
	// writes; file magic headers excluded) — observability for the
	// O(batch) append bound and its CI counter.
	idxBytes atomic.Int64

	// looseN caches the loose-object census so repack policies can consult
	// it per push without a directory scan: counted once on first demand
	// (this store never writes loose objects itself) and zeroed when
	// Repack folds the loose tier in.
	looseOnce sync.Once
	looseN    atomic.Int64
}

// PackStats is a point-in-time census of a pack store, for repack policies
// and the hosting admin API.
type PackStats struct {
	Packs         int // pack files currently open (current append target included)
	PackedObjects int // objects reachable through pack indexes
	LooseObjects  int // legacy loose objects not yet folded in (see LooseCount)
}

// Stats reports the store's current shape. The loose census comes from
// LooseCount's cache, so steady-state calls never touch the directory tree.
func (s *PackStore) Stats() PackStats {
	loose := s.LooseCount()
	s.mu.RLock()
	defer s.mu.RUnlock()
	return PackStats{Packs: len(s.packs), PackedObjects: len(s.refs), LooseObjects: loose}
}

// LooseCount reports how many loose objects the store reads through to.
// The directory scan runs once, on first call; the count only ever moves
// to zero afterwards (PackStore appends exclusively to packs, and Repack
// folds the loose tier away), so the cached value stays truthful without
// rescanning per call.
func (s *PackStore) LooseCount() int {
	s.looseOnce.Do(func() {
		if n, err := s.loose.Len(); err == nil {
			s.looseN.Store(int64(n))
		}
	})
	return int(s.looseN.Load())
}

// repackBuildHook, when set (tests only), is called during Repack's
// unlocked build phase, after the consolidated pack is complete but before
// the swap lock is taken.
var repackBuildHook func()

// NewPackStore opens (creating if necessary) a pack store rooted at dir.
// Loose objects already under dir remain readable; Repack folds them into
// a pack.
func NewPackStore(dir string) (*PackStore, error) {
	loose, err := NewFileStore(dir)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(dir, packDirName), 0o755); err != nil {
		return nil, fmt.Errorf("store: create pack dir: %w", err)
	}
	s := &PackStore{root: dir, loose: loose}
	if err := s.loadPacks(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// Root returns the directory the store persists into.
func (s *PackStore) Root() string { return s.root }

// IdxBytesWritten reports the cumulative index bytes this store instance
// has persisted: one O(batch) journal segment per append batch, plus the
// base-index snapshots written when a pack rolls, is opened with an
// unmerged journal, or is repacked. The delta across one append batch is
// the batch's index cost — independent of pack size (asserted in tests and
// pinned by the idx_bytes_per_64_object_append_batch CI counter).
func (s *PackStore) IdxBytesWritten() int64 { return s.idxBytes.Load() }

// Close releases the pack file handles. The store must not be used after.
func (s *PackStore) Close() error {
	s.repackMu.Lock()
	defer s.repackMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, p := range s.packs {
		if err := p.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	if s.curSeg != nil {
		if err := s.curSeg.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.packs = nil
	s.cur = nil
	s.curSeg = nil
	return first
}

// loadPacks opens every pack under root/pack, loading (or rebuilding) its
// index.
func (s *PackStore) loadPacks() error {
	dir := filepath.Join(s.root, packDirName)
	names, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var loaded [][]packEntry
	total := 0
	for _, e := range names {
		if e.IsDir() || !strings.HasPrefix(e.Name(), "pack-") || !strings.HasSuffix(e.Name(), ".pack") {
			continue
		}
		p, entries, err := s.openPack(filepath.Join(dir, e.Name()))
		if err != nil {
			return err
		}
		if p != nil {
			s.packs = append(s.packs, p)
			loaded = append(loaded, entries)
			total += len(entries)
		}
	}
	// Every index is read before any entry is registered, so the ref map is
	// sized once instead of growing through each pack's entries.
	s.refs = make(map[object.ID]packRef, total)
	for i, entries := range loaded {
		p := s.packs[i]
		for _, e := range entries {
			if _, dup := s.refs[e.id]; !dup {
				s.refs[e.id] = packRef{pack: p, off: e.off, clen: e.clen}
				s.gen++
			}
		}
	}
	return nil
}

// openPack opens one pack file and loads its persisted index — the sorted
// base .idx extended by any journaled segments, which are merged into the
// base here ("lazily, on open") and the journal deleted — returning the
// pack and its entries for the caller to register. A missing base index is
// an empty one (the pack's creator crashed before its first merge; the
// journal alone carries the acknowledged history). A corrupt base index, or
// a missing one with no usable journal, is recovered by scanning the pack's
// records. A pack too short to hold its header is skipped: nil pack, no
// error.
func (s *PackStore) openPack(path string) (*packFile, []packEntry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("store: open pack: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if st.Size() < int64(len(packMagic)) {
		// A crash between creating a pack file and its header landing can
		// leave a sub-magic (typically empty) file. No record can have
		// landed in it, so skip it like a torn record tail — a hard error
		// here would make the whole store unopenable. (A full-length but
		// wrong magic still errors below: that is corruption, not a torn
		// creation.)
		f.Close()
		return nil, nil, nil
	}
	p := &packFile{path: path, f: f}
	segPath := segPathFor(path)
	entries, covered, idxErr := loadPackIndex(idxPathFor(path), st.Size())
	if idxErr != nil {
		entries, covered = nil, int64(len(packMagic))
	}
	segEntries, segCovered, segFound := loadSegments(segPath, covered, st.Size())
	entries = append(entries, segEntries...)
	covered = segCovered
	if idxErr != nil && len(segEntries) == 0 {
		// No base index and no journal to replay: recover by scanning the
		// pack itself. The scan stops at the first record that does not
		// fit the file — a crash-torn tail, or a mid-pack corrupt length
		// field — and the rebuilt index covers the readable prefix.
		// Nothing is truncated: an index covering a prefix of the pack is
		// valid (see loadPackIndex), the dead bytes are unreachable but
		// preserved for salvage, and loaded packs never receive appends.
		entries, covered, err = scanPackRecords(f, st.Size())
		if err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("store: pack %s unreadable: %w", filepath.Base(path), err)
		}
	}
	if idxErr != nil || len(segEntries) > 0 {
		if _, werr := s.writeIndex(idxPathFor(path), entries, covered); werr != nil {
			f.Close()
			return nil, nil, werr
		}
	}
	// The journal (if any) is merged into the base index now; remove it.
	// Crashing between the index write above and this removal is fine: the
	// next open skips segments the base already covers.
	if segFound {
		os.Remove(segPath)
	}
	p.size = covered
	return p, entries, nil
}

func idxPathFor(packPath string) string {
	return strings.TrimSuffix(packPath, ".pack") + ".idx"
}

// scanPackRecords walks a pack file's records sequentially, returning the
// entries of every complete record and the byte size they cover. A torn
// final record (crash mid-append) is ignored.
func scanPackRecords(f *os.File, size int64) ([]packEntry, int64, error) {
	hdr := make([]byte, len(packMagic))
	if _, err := f.ReadAt(hdr, 0); err != nil || string(hdr) != packMagic {
		return nil, 0, fmt.Errorf("bad pack magic")
	}
	var entries []packEntry
	off := int64(len(packMagic))
	rec := make([]byte, packRecHeader)
	for off+packRecHeader <= size {
		if _, err := f.ReadAt(rec, off); err != nil {
			return nil, 0, err
		}
		var id object.ID
		copy(id[:], rec[:object.IDSize])
		clen := binary.BigEndian.Uint32(rec[object.IDSize:])
		if off+packRecHeader+int64(clen) > size {
			break // torn tail: the payload never finished landing
		}
		entries = append(entries, packEntry{id: id, off: off + packRecHeader, clen: clen})
		off += packRecHeader + int64(clen)
	}
	return entries, off, nil
}

// loadPackIndex reads a persisted .idx, validating it against the pack's
// current byte size. An index covering MORE bytes than exist is corrupt.
// An index covering FEWER is accepted: the tail beyond covered is either
// batches journaled in the pack's .seg file but not yet merged, or dead
// bytes — a crash-torn append whose Put was never acknowledged, or garbage
// a recovery scan already skipped — and loaded packs never receive further
// appends, so a dead gap cannot grow.
func loadPackIndex(path string, packSize int64) ([]packEntry, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	const fixed = 8 + 8 + 4 + 256*4
	if len(data) < len(packIdxMagic)+fixed-8 || string(data[:len(packIdxMagic)]) != packIdxMagic {
		return nil, 0, fmt.Errorf("store: bad pack index %s", filepath.Base(path))
	}
	b := data[len(packIdxMagic):]
	covered := int64(binary.BigEndian.Uint64(b))
	count := binary.BigEndian.Uint32(b[8:])
	if covered > packSize {
		return nil, 0, fmt.Errorf("store: pack index %s covers %d bytes, pack has %d", filepath.Base(path), covered, packSize)
	}
	b = b[8+4+256*4:] // fanout is redundant with the sorted entries; skip
	const entSize = object.IDSize + 8 + 4
	if len(b) != int(count)*entSize {
		return nil, 0, fmt.Errorf("store: pack index %s truncated", filepath.Base(path))
	}
	entries := make([]packEntry, count)
	for i := range entries {
		e := b[i*entSize:]
		copy(entries[i].id[:], e[:object.IDSize])
		entries[i].off = int64(binary.BigEndian.Uint64(e[object.IDSize:]))
		entries[i].clen = binary.BigEndian.Uint32(e[object.IDSize+8:])
		if entries[i].off+int64(entries[i].clen) > covered {
			return nil, 0, fmt.Errorf("store: pack index %s entry out of range", filepath.Base(path))
		}
	}
	return entries, covered, nil
}

// writeIndex persists a base index via writePackIndex, keeping the store's
// index-byte accounting.
func (s *PackStore) writeIndex(path string, entries []packEntry, covered int64) (int, error) {
	n, err := writePackIndex(path, entries, covered)
	if err == nil {
		s.idxBytes.Add(int64(n))
	}
	return n, err
}

// writePackIndex persists the sorted fanout index next to its pack with
// write-then-rename, so readers never observe a partial index. It returns
// the number of index bytes written.
func writePackIndex(path string, entries []packEntry, covered int64) (int, error) {
	sorted := append([]packEntry(nil), entries...)
	sort.Slice(sorted, func(i, j int) bool { return idLess(sorted[i].id, sorted[j].id) })
	var buf bytes.Buffer
	buf.WriteString(packIdxMagic)
	var u64 [8]byte
	var u32 [4]byte
	binary.BigEndian.PutUint64(u64[:], uint64(covered))
	buf.Write(u64[:])
	binary.BigEndian.PutUint32(u32[:], uint32(len(sorted)))
	buf.Write(u32[:])
	var fanout [256]uint32
	for _, e := range sorted {
		fanout[e.id[0]]++
	}
	var cum uint32
	for b := 0; b < 256; b++ {
		cum += fanout[b]
		binary.BigEndian.PutUint32(u32[:], cum)
		buf.Write(u32[:])
	}
	for _, e := range sorted {
		buf.Write(e.id[:])
		binary.BigEndian.PutUint64(u64[:], uint64(e.off))
		buf.Write(u64[:])
		binary.BigEndian.PutUint32(u32[:], e.clen)
		buf.Write(u32[:])
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-idx-*")
	if err != nil {
		return 0, fmt.Errorf("store: pack index temp: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(buf.Bytes()); err == nil {
		err = tmp.Close()
	} else {
		tmp.Close()
	}
	if err != nil {
		os.Remove(tmpName)
		return 0, fmt.Errorf("store: write pack index: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return 0, fmt.Errorf("store: rename pack index: %w", err)
	}
	return buf.Len(), nil
}

// syncPath fsyncs a file or directory by path.
func syncPath(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("store: sync %s: %w", filepath.Base(path), err)
	}
	return nil
}

// nextPackPath picks the first unused pack number under root/pack. Caller
// holds the write lock.
func (s *PackStore) nextPackPath() (string, error) {
	dir := filepath.Join(s.root, packDirName)
	for n := 1; ; n++ {
		path := filepath.Join(dir, fmt.Sprintf("pack-%06d.pack", n))
		if _, err := os.Stat(path); os.IsNotExist(err) {
			return path, nil
		} else if err != nil {
			return "", err
		}
	}
}

// createPack starts a new writable pack file. Caller holds the write lock.
// Any stale .idx left at this pack number by old crash debris (an orphan
// index outlives its pack when a crash lands between the two deletions) is
// removed first: the base index is only ever rewritten at roll/open now,
// so a stale base would otherwise be accepted on the next open and make
// journal replay — this pack's only index until then — break on the
// coverage gap, silently discarding acknowledged objects.
func createPack(path string) (*packFile, error) {
	if err := os.Remove(idxPathFor(path)); err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("store: clear stale pack index: %w", err)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: create pack: %w", err)
	}
	if _, err := f.Write([]byte(packMagic)); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("store: write pack header: %w", err)
	}
	return &packFile{path: path, f: f, size: int64(len(packMagic))}, nil
}

// createSegJournal starts the segment journal for a new current pack. A
// stale journal left at this path by old crash debris is truncated away.
func createSegJournal(path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: create pack journal: %w", err)
	}
	if _, err := f.WriteAt([]byte(packSegMagic), 0); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("store: write pack journal header: %w", err)
	}
	return f, nil
}

// rollCurLocked finishes the current pack: its journal is merged into a
// final sorted base index and deleted, and the pack stops accepting
// appends (it keeps serving reads through its registered entries). Caller
// holds the write lock.
func (s *PackStore) rollCurLocked() error {
	if _, err := s.writeIndex(idxPathFor(s.cur.path), s.curEntries, s.cur.size); err != nil {
		return err
	}
	s.curSeg.Close()
	os.Remove(segPathFor(s.cur.path))
	s.cur, s.curEntries, s.curSeg, s.curSegSize = nil, nil, nil, 0
	return nil
}

// appendLocked appends pre-compressed records for objects the store lacks
// and journals the batch's index entries as one O(batch) segment — the
// base index is only rewritten when the pack rolls or is next opened, so
// per-batch index I/O never grows with the pack. Caller holds the write
// lock and has already filtered out present IDs (a racing duplicate is
// still re-checked here).
func (s *PackStore) appendLocked(ids []object.ID, compressed [][]byte) error {
	if s.cur != nil && len(s.curEntries) >= packRollEntries {
		// Roll over: merge the full pack's journal into its final index;
		// only new appends move to a fresh pack.
		if err := s.rollCurLocked(); err != nil {
			return err
		}
	}
	if s.cur == nil {
		path, err := s.nextPackPath()
		if err != nil {
			return err
		}
		p, err := createPack(path)
		if err != nil {
			return err
		}
		seg, err := createSegJournal(segPathFor(path))
		if err != nil {
			p.f.Close()
			os.Remove(path)
			return err
		}
		s.cur = p
		s.curSeg = seg
		s.curSegSize = int64(len(packSegMagic))
		s.packs = append(s.packs, p)
	}
	var buf bytes.Buffer
	start := s.cur.size
	newEntries := s.curEntries
	var lenb [4]byte
	for i, id := range ids {
		if _, dup := s.refs[id]; dup {
			continue
		}
		off := start + int64(buf.Len())
		buf.Write(id[:])
		binary.BigEndian.PutUint32(lenb[:], uint32(len(compressed[i])))
		buf.Write(lenb[:])
		buf.Write(compressed[i])
		newEntries = append(newEntries, packEntry{id: id, off: off + packRecHeader, clen: uint32(len(compressed[i]))})
	}
	if buf.Len() == 0 {
		return nil
	}
	if _, err := s.cur.f.WriteAt(buf.Bytes(), start); err != nil {
		return fmt.Errorf("store: pack append: %w", err)
	}
	// Journal the batch BEFORE registering anything in memory: the segment
	// is the acknowledgement, so if its write fails the batch reports
	// failure with no state change — a retry re-appends at the same pack
	// and journal offsets over the orphaned bytes (replay treats bytes
	// past the last valid segment as a torn tail). Registering first would
	// let a retried Put dedupe against entries whose acknowledgement never
	// landed.
	segBytes := encodeSegment(newEntries[len(s.curEntries):], start, start+int64(buf.Len()))
	if _, err := s.curSeg.WriteAt(segBytes, s.curSegSize); err != nil {
		return fmt.Errorf("store: pack journal append: %w", err)
	}
	s.idxBytes.Add(int64(len(segBytes)))
	s.curSegSize += int64(len(segBytes))
	s.cur.size = start + int64(buf.Len())
	for _, e := range newEntries[len(s.curEntries):] {
		s.refs[e.id] = packRef{pack: s.cur, off: e.off, clen: e.clen}
		s.gen++
	}
	s.curEntries = newEntries
	return nil
}

// Put implements Store.
func (s *PackStore) Put(o object.Object) (object.ID, error) {
	enc := object.Encode(o)
	id := object.HashBytes(enc)
	if err := s.PutManyEncoded([]Encoded{{ID: id, Enc: enc}}); err != nil {
		return object.ZeroID, err
	}
	return id, nil
}

// PutMany implements BatchStore: the batch is encoded and hashed up front,
// compressed outside the lock, and appended to the current pack as one
// write with one O(batch) index segment.
func (s *PackStore) PutMany(objs []object.Object) ([]object.ID, error) {
	ids := make([]object.ID, len(objs))
	batch := make([]Encoded, len(objs))
	for i, o := range objs {
		batch[i].Enc = object.Encode(o)
		batch[i].ID = object.HashBytes(batch[i].Enc)
		ids[i] = batch[i].ID
	}
	if err := s.PutManyEncoded(batch); err != nil {
		return nil, err
	}
	return ids, nil
}

// PutManyEncoded implements RawBatchStore: canonical encodings are
// compressed with the pooled compressors and land in the pack with no
// re-encode/re-hash, one file write and one journaled index segment per
// batch.
func (s *PackStore) PutManyEncoded(batch []Encoded) error {
	// Filter already-present objects under the read lock, then compress
	// outside any lock; the write lock re-checks for racing duplicates.
	missing := batch[:0:0]
	s.mu.RLock()
	for _, e := range batch {
		if _, ok := s.refs[e.ID]; !ok {
			missing = append(missing, e)
		}
	}
	s.mu.RUnlock()
	if len(missing) == 0 {
		return nil
	}
	// Drop batch-internal duplicates and objects already stored loose (one
	// batched presence query), so nothing lands in a pack twice.
	uniq := missing[:0:0]
	seen := make(map[object.ID]bool, len(missing))
	for _, e := range missing {
		if !seen[e.ID] {
			seen[e.ID] = true
			uniq = append(uniq, e)
		}
	}
	candidateIDs := make([]object.ID, len(uniq))
	for i, e := range uniq {
		candidateIDs[i] = e.ID
	}
	looseHave, err := s.loose.HasMany(candidateIDs)
	if err != nil {
		return err
	}
	ids := make([]object.ID, 0, len(uniq))
	compressed := make([][]byte, 0, len(uniq))
	var bufs []*bytes.Buffer
	defer func() {
		for _, b := range bufs {
			compressBufPool.Put(b)
		}
	}()
	for i, e := range uniq {
		if looseHave[i] {
			continue
		}
		buf, err := compress(e.Enc)
		if err != nil {
			return err
		}
		bufs = append(bufs, buf)
		ids = append(ids, e.ID)
		compressed = append(compressed, buf.Bytes())
	}
	if len(ids) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendLocked(ids, compressed)
}

// packReadBufPool recycles the pread scratch buffers packed Gets stage
// compressed payloads in, so a hot read loop stops allocating one
// payload-sized buffer per object (the decompressors themselves are the
// same pooled zlib readers FileStore uses).
var packReadBufPool = sync.Pool{New: func() any {
	b := make([]byte, 32<<10)
	return &b
}}

// putPackReadBuf returns a pread buffer to the pool unless an unusually
// large object grew it past the retention cap.
func putPackReadBuf(bufp *[]byte) {
	if cap(*bufp) <= 4<<20 {
		packReadBufPool.Put(bufp)
	}
}

// readPacked fetches one packed object's compressed payload into *bufp
// (growing it if needed), returning a slice aliasing that buffer. The
// pread happens under the read lock so a concurrent Repack cannot close
// the owning pack file mid-read (Repack holds the write lock for its
// swap); decompression and verification run outside. found=false means the
// ID is not packed.
func (s *PackStore) readPacked(id object.ID, bufp *[]byte) (compressed []byte, found bool, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ref, ok := s.refs[id]
	if !ok {
		return nil, false, nil
	}
	buf := *bufp
	if int(ref.clen) > cap(buf) {
		buf = make([]byte, ref.clen)
		*bufp = buf
	}
	buf = buf[:ref.clen]
	if _, err := ref.pack.f.ReadAt(buf, ref.off); err != nil {
		return nil, true, fmt.Errorf("store: pack read %s: %w", id.Short(), err)
	}
	return buf, true, nil
}

// Get implements Store: one map hit and one pread (into a pooled scratch
// buffer) from the owning pack, with decompression and hash verification
// outside the lock; loose objects read through the FileStore fallback. A
// loose miss re-checks the packs once — a concurrent Repack may have
// folded the object between the two lookups, and that move is the only way
// a stored object relocates.
func (s *PackStore) Get(id object.ID) (object.Object, error) {
	bufp := packReadBufPool.Get().(*[]byte)
	defer putPackReadBuf(bufp)
	compressed, found, err := s.readPacked(id, bufp)
	if err != nil {
		return nil, err
	}
	if !found {
		o, err := s.loose.Get(id)
		if !errors.Is(err, ErrNotFound) {
			return o, err
		}
		if compressed, found, err = s.readPacked(id, bufp); err != nil {
			return nil, err
		}
		if !found {
			return nil, ErrNotFound
		}
	}
	enc, err := decompress(compressed)
	if err != nil {
		return nil, fmt.Errorf("store: packed object %s corrupt: %w", id.Short(), err)
	}
	if object.HashBytes(enc) != id {
		return nil, fmt.Errorf("store: packed object %s fails hash verification", id.Short())
	}
	return object.Decode(enc)
}

// Has implements Store. Like Get, a loose miss re-checks the packs so a
// concurrent Repack's loose→pack move cannot produce a false negative.
func (s *PackStore) Has(id object.ID) (bool, error) {
	s.mu.RLock()
	_, ok := s.refs[id]
	s.mu.RUnlock()
	if ok {
		return true, nil
	}
	ok, err := s.loose.Has(id)
	if err != nil || ok {
		return ok, err
	}
	s.mu.RLock()
	_, ok = s.refs[id]
	s.mu.RUnlock()
	return ok, nil
}

// HasMany implements BatchStore: packed IDs answer from the in-memory map
// under one lock acquisition; only the residue consults the loose store.
func (s *PackStore) HasMany(ids []object.ID) ([]bool, error) {
	have := make([]bool, len(ids))
	var missIdx []int
	s.mu.RLock()
	for i, id := range ids {
		if _, ok := s.refs[id]; ok {
			have[i] = true
		} else {
			missIdx = append(missIdx, i)
		}
	}
	s.mu.RUnlock()
	if len(missIdx) == 0 {
		return have, nil
	}
	missIDs := make([]object.ID, len(missIdx))
	for j, i := range missIdx {
		missIDs[j] = ids[i]
	}
	looseHave, err := s.loose.HasMany(missIDs)
	if err != nil {
		return nil, err
	}
	// Re-check the packs for loose misses under one lock: a concurrent
	// Repack may have folded them between the two passes.
	s.mu.RLock()
	for j, i := range missIdx {
		have[i] = looseHave[j]
		if !have[i] {
			_, have[i] = s.refs[ids[i]]
		}
	}
	s.mu.RUnlock()
	return have, nil
}

// IDs implements Store: packed IDs plus any loose objects not yet folded
// into a pack.
func (s *PackStore) IDs() ([]object.ID, error) {
	looseIDs, err := s.loose.IDs()
	if err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	ids := make([]object.ID, 0, len(s.refs)+len(looseIDs))
	for id := range s.refs {
		ids = append(ids, id)
	}
	for _, id := range looseIDs {
		if _, packed := s.refs[id]; !packed {
			ids = append(ids, id)
		}
	}
	return ids, nil
}

// Len implements Store.
func (s *PackStore) Len() (int, error) {
	ids, err := s.IDs()
	if err != nil {
		return 0, err
	}
	return len(ids), nil
}

// IDsByPrefix implements PrefixSearcher: packed IDs answer from a
// lazily-built IDIndex in O(log n); loose stragglers come from the fanout
// directory named by the prefix. The loose store is queried BEFORE the
// pack index is captured: a concurrent Repack moves objects loose→pack
// (deleting loose files after its swap registers them as packed), so this
// order guarantees an object is visible on at least one side — the reverse
// order could miss it on both.
func (s *PackStore) IDsByPrefix(prefix string, limit int) ([]object.ID, error) {
	loose, err := s.loose.IDsByPrefix(prefix, limit)
	if err != nil {
		return nil, err
	}
	idx := s.lazy.get(&s.mu, func() uint64 { return s.gen }, func() []object.ID {
		ids := make([]object.ID, 0, len(s.refs))
		for id := range s.refs {
			ids = append(ids, id)
		}
		return ids
	})
	out, err := idx.ByPrefix(prefix, limit)
	if err != nil {
		return nil, err
	}
	for _, id := range loose {
		if !idx.Contains(id) {
			out = append(out, id)
		}
	}
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out, nil
}

// Repack folds every loose object into pack storage and consolidates all
// existing packs into a single new pack, deleting the old packs and the
// loose object files it absorbed. Loose objects are moved byte-for-byte —
// a loose file's zlib stream IS the record payload, so nothing is
// recompressed — and packed records are copied verbatim. It returns how
// many loose objects were folded in.
//
// Repack is a two-phase concurrent fold and does NOT block the store for
// its duration. Phase one takes the store lock only long enough to freeze
// the append target (the current pack rolls, so concurrent writers append
// to fresh packs the fold ignores) and snapshot the pack list; the
// consolidated pack and its index are then built entirely outside the
// lock, with readers serving from the old packs and loose files and
// writers appending throughout. Phase two re-takes the lock for a brief
// in-memory swap — the new pack, its index and the directory are fsync'd
// first, so the swap is crash-safe — and the replaced files are deleted
// after the lock is released. When the store already holds exactly one
// pack and no loose objects the fold would be byte-identical, so Repack
// returns without writing anything.
func (s *PackStore) Repack() (int, error) {
	s.repackMu.Lock()
	defer s.repackMu.Unlock()

	looseIDs, err := s.loose.IDs()
	if err != nil {
		return 0, err
	}

	// Phase one: freeze and snapshot, briefly under the store lock.
	s.mu.Lock()
	var fold []object.ID
	for _, id := range looseIDs {
		if _, packed := s.refs[id]; !packed {
			fold = append(fold, id)
		}
	}
	if len(fold) == 0 && len(s.packs) <= 1 {
		// Fast path: one pack (or none) and nothing loose — the fold
		// would rewrite byte-identical output, so don't.
		s.mu.Unlock()
		return 0, nil
	}
	// Freeze the append target: the current pack (and its journal) stops
	// receiving appends, so the snapshot covers a fixed byte range of
	// every pack and concurrent writers land in fresh packs the fold
	// leaves alone. The journal is merged implicitly — the fold reads the
	// in-memory sizes — and its file is deleted with the pack after the
	// swap.
	frozenSeg := s.curSeg
	s.cur, s.curEntries, s.curSeg, s.curSegSize = nil, nil, nil, 0
	snapshot := append([]*packFile(nil), s.packs...)
	refsLen := len(s.refs) // sizing hint, captured under the lock
	s.mu.Unlock()
	if frozenSeg != nil {
		frozenSeg.Close()
	}

	// Build phase: construct the consolidated pack with no lock held.
	// Readers pread the snapshot packs concurrently (ReadAt is safe) and
	// nothing deletes them before the swap; Repack itself is serialised by
	// repackMu.
	np, err := s.allocatePack()
	if err != nil {
		return 0, err
	}
	fail := func(err error) (int, error) {
		np.f.Close()
		// Index first: an orphan .idx without its pack would poison a
		// later pack that reuses the number (see createPack).
		os.Remove(idxPathFor(np.path))
		os.Remove(np.path)
		return 0, err
	}
	newRefs := make(map[object.ID]packRef, refsLen+len(fold))
	var entries []packEntry
	var scratch []byte
	appendRecord := func(id object.ID, compressed []byte) error {
		var hdr [packRecHeader]byte
		copy(hdr[:], id[:])
		binary.BigEndian.PutUint32(hdr[object.IDSize:], uint32(len(compressed)))
		rec := append(append(scratch[:0], hdr[:]...), compressed...)
		scratch = rec[:0]
		if _, err := np.f.WriteAt(rec, np.size); err != nil {
			return fmt.Errorf("store: repack append: %w", err)
		}
		e := packEntry{id: id, off: np.size + packRecHeader, clen: uint32(len(compressed))}
		np.size += packRecHeader + int64(len(compressed))
		entries = append(entries, e)
		newRefs[id] = packRef{pack: np, off: e.off, clen: e.clen}
		return nil
	}
	// Copy every packed record (each snapshot pack read sequentially in
	// record order, first occurrence of an ID winning — the same priority
	// the in-memory refs gave them), then fold the loose objects.
	var payload []byte
	for _, p := range snapshot {
		ents, _, err := scanPackRecords(p.f, p.size)
		if err != nil {
			return fail(err)
		}
		for _, e := range ents {
			if _, dup := newRefs[e.id]; dup {
				continue // shadowed duplicate from an older open; drop it
			}
			if int(e.clen) > cap(payload) {
				payload = make([]byte, e.clen)
			}
			payload = payload[:e.clen]
			if _, err := p.f.ReadAt(payload, e.off); err != nil {
				return fail(err)
			}
			if err := appendRecord(e.id, payload); err != nil {
				return fail(err)
			}
		}
	}
	folded := 0
	for _, id := range fold {
		compressed, err := os.ReadFile(s.loose.pathFor(id))
		if err != nil {
			return fail(fmt.Errorf("store: repack loose %s: %w", id.Short(), err))
		}
		if _, dup := newRefs[id]; dup {
			continue
		}
		if err := appendRecord(id, compressed); err != nil {
			return fail(err)
		}
		folded++
	}
	if _, err := s.writeIndex(idxPathFor(np.path), entries, np.size); err != nil {
		return fail(err)
	}
	// The old packs and loose files are about to become the ONLY casualties
	// of this operation — fsync the new pack, its index and the directory
	// before any deletion, or a power loss could take both copies.
	// (Ordinary appends skip fsync, like the loose store: a crash there
	// loses only the newest writes, never the sole copy of anything.)
	if err := np.f.Sync(); err != nil {
		return fail(fmt.Errorf("store: sync repacked pack: %w", err))
	}
	if err := syncPath(idxPathFor(np.path)); err != nil {
		return fail(err)
	}
	if err := syncPath(filepath.Dir(np.path)); err != nil {
		return fail(err)
	}
	if repackBuildHook != nil {
		repackBuildHook()
	}

	// Phase two: the new pack is durable; swap it in under the lock. Only
	// in-memory pointers move here — no I/O happens until the lock is
	// released.
	inSnapshot := make(map[*packFile]bool, len(snapshot))
	for _, p := range snapshot {
		inSnapshot[p] = true
	}
	s.mu.Lock()
	survivors := []*packFile{np}
	for _, p := range s.packs {
		if !inSnapshot[p] {
			survivors = append(survivors, p) // appended to during the build
		}
	}
	s.packs = survivors
	for id, ref := range newRefs {
		s.refs[id] = ref
	}
	s.gen++
	s.mu.Unlock()

	// Delete what the swap replaced. No reader can still be using these:
	// preads hold the read lock for the map lookup and the read together,
	// and the refs no longer point here.
	for _, p := range snapshot {
		p.f.Close()
		// Index and journal before the pack: a crash part-way through
		// must not leave an orphan .idx that a later pack reusing this
		// number would mistake for its base (see createPack, which also
		// clears such debris defensively).
		os.Remove(idxPathFor(p.path))
		os.Remove(segPathFor(p.path))
		os.Remove(p.path)
	}
	for _, id := range fold {
		os.Remove(s.loose.pathFor(id))
	}
	// Prune fanout directories the fold emptied (non-empty ones refuse).
	seenFan := map[string]bool{}
	for _, id := range fold {
		fan := id.String()[:2]
		if !seenFan[fan] {
			seenFan[fan] = true
			os.Remove(filepath.Join(s.root, fan))
		}
	}
	s.looseN.Store(0) // the fold absorbed every loose object
	return folded, nil
}

// allocatePack picks the next unused pack number and creates the file. It
// takes the store lock itself (unlike the -Locked methods, whose callers
// hold it), so the pick-and-create cannot race a concurrent appender doing
// the same. Used by Repack's build phase, which otherwise holds no lock;
// the new pack is not registered in s.packs until the swap.
func (s *PackStore) allocatePack() (*packFile, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	path, err := s.nextPackPath()
	if err != nil {
		return nil, err
	}
	return createPack(path)
}

// PackCount reports how many pack files the store currently holds (loose
// objects excluded) — observability for repack policies and tests.
func (s *PackStore) PackCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.packs)
}

var _ interface {
	Store
	BatchStore
	RawBatchStore
	PrefixSearcher
	io.Closer
} = (*PackStore)(nil)
