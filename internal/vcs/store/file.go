package store

import (
	"bytes"
	"compress/zlib"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"github.com/gitcite/gitcite/internal/vcs/object"
)

// FileStore persists objects as zlib-compressed loose files under a root
// directory, fanned out by the first two hex characters of the ID
// (root/ab/cdef....), the layout used by the local executable tool's
// ".gitcite/objects" directory. It is safe for concurrent use within a
// single process.
//
// Locking is striped per fanout directory (one RWMutex per first ID byte),
// so readers and writers touching different fanout dirs never contend; and
// zlib compression/decompression happens outside the critical section, so
// the locks are held only around the filesystem operations themselves.
// Compressors, decompressors and their buffers are pooled (sync.Pool):
// zlib writer setup is ~1.3 KB of allocation per stream, which commit
// batches would otherwise pay per object.
type FileStore struct {
	root  string
	locks [256]sync.RWMutex
}

// NewFileStore opens (creating if necessary) a file store rooted at dir.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create root: %w", err)
	}
	return &FileStore{root: dir}, nil
}

// Root returns the directory the store persists into.
func (s *FileStore) Root() string { return s.root }

func (s *FileStore) pathFor(id object.ID) string {
	hexid := id.String()
	return filepath.Join(s.root, hexid[:2], hexid[2:])
}

// stripe returns the lock covering the object's fanout directory.
func (s *FileStore) stripe(id object.ID) *sync.RWMutex { return &s.locks[id[0]] }

// compressionLevel picks the zlib level of a loose-object or pack-record
// payload by the object's kind, which is the first word of its canonical
// encoding. The writer picks; readers never branch on it: the payload is a
// plain zlib stream at any level, so decompress, Repack's byte-for-byte fold
// and repositories written at another level are unaffected.
//
//   - A blob (mostly citation.cite JSON) deflates to ~0.15 of its size, so it
//     keeps BestSpeed: the default level made a pack append take half as long
//     again for 3–6 % fewer bytes on disk (BENCH.md, PR 12).
//   - A tree is mostly 32-byte object IDs and deflates only to ~0.80 of its
//     size, a commit to ~0.74, while deflating them was 71 % of the
//     compression time of a commit. They are written as stored blocks
//     (NoCompression): the encoding itself behind 2 header bytes and 5
//     bytes per ≤64 KB block, then an empty final block and a 4-byte
//     Adler-32 (BENCH.md, PR 35).
func compressionLevel(enc []byte) int {
	if bytes.HasPrefix(enc, treePrefix) || bytes.HasPrefix(enc, commitPrefix) {
		return zlib.NoCompression
	}
	return zlib.BestSpeed
}

var (
	treePrefix   = []byte(object.TypeTree.String() + " ")
	commitPrefix = []byte(object.TypeCommit.String() + " ")

	// zlibWriterPools recycle compressors across Puts, indexed by the level
	// compressionLevel returns; Reset re-targets a writer at a new
	// destination buffer without reallocating its state.
	zlibWriterPools = [...]sync.Pool{
		zlib.NoCompression: {New: newZlibWriter(zlib.NoCompression)},
		zlib.BestSpeed:     {New: newZlibWriter(zlib.BestSpeed)},
	}
	// compressBufPool recycles the destination buffers the compressed
	// stream is staged in before the locked filesystem write.
	compressBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}
	// zlibReaderPool recycles decompressors across Gets. zlib readers
	// returned by zlib.NewReader always implement zlib.Resetter.
	zlibReaderPool sync.Pool
)

type zlibReader interface {
	io.ReadCloser
	zlib.Resetter
}

// newZlibWriter returns a sync.Pool constructor for writers at level.
// NewWriterLevel only fails for a level outside zlib's range.
func newZlibWriter(level int) func() any {
	return func() any {
		zw, _ := zlib.NewWriterLevel(io.Discard, level)
		return zw
	}
}

// compress zlib-compresses enc, at the level its kind calls for, into a
// pooled buffer. The caller must return the buffer via compressBufPool.Put
// when done with its bytes.
func compress(enc []byte) (*bytes.Buffer, error) {
	buf := compressBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	pool := &zlibWriterPools[compressionLevel(enc)]
	zw := pool.Get().(*zlib.Writer)
	zw.Reset(buf)
	_, err := zw.Write(enc)
	if cerr := zw.Close(); err == nil {
		err = cerr
	}
	pool.Put(zw)
	if err != nil {
		compressBufPool.Put(buf)
		return nil, fmt.Errorf("store: compress: %w", err)
	}
	return buf, nil
}

// decompress inflates a compressed object payload using a pooled reader.
func decompress(compressed []byte) ([]byte, error) {
	br := bytes.NewReader(compressed)
	zr, ok := zlibReaderPool.Get().(zlibReader)
	if ok {
		if err := zr.Reset(br, nil); err != nil {
			return nil, err
		}
	} else {
		rc, err := zlib.NewReader(br)
		if err != nil {
			return nil, err
		}
		zr = rc.(zlibReader)
	}
	enc, err := io.ReadAll(zr)
	if cerr := zr.Close(); err == nil {
		err = cerr
	}
	zlibReaderPool.Put(zr)
	if err != nil {
		return nil, err
	}
	return enc, nil
}

// writeObjectLocked writes one compressed object into its fanout dir with
// write-then-rename so readers never observe a partial object. The caller
// holds the stripe's write lock and has created the fanout dir.
func writeObjectLocked(dir, path string, compressed []byte) error {
	tmp, err := os.CreateTemp(dir, ".tmp-obj-*")
	if err != nil {
		return fmt.Errorf("store: temp file: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(compressed); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("store: write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: close: %w", err)
	}
	// Renaming over an object a concurrent writer landed first is harmless:
	// content-addressing guarantees identical bytes.
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: rename: %w", err)
	}
	return nil
}

// Put implements Store.
func (s *FileStore) Put(o object.Object) (object.ID, error) {
	enc := object.Encode(o)
	id := object.HashBytes(enc)
	path := s.pathFor(id)

	mu := s.stripe(id)
	mu.RLock()
	_, statErr := os.Stat(path)
	mu.RUnlock()
	if statErr == nil {
		return id, nil // content-addressed: already present means identical
	}

	// Compress outside the critical section: only the filesystem writes
	// below need the stripe lock.
	buf, err := compress(enc)
	if err != nil {
		return object.ZeroID, err
	}
	defer compressBufPool.Put(buf)

	mu.Lock()
	defer mu.Unlock()
	if _, err := os.Stat(path); err == nil {
		return id, nil // a concurrent Put won the race; identical content
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return object.ZeroID, fmt.Errorf("store: fanout dir: %w", err)
	}
	if err := writeObjectLocked(filepath.Dir(path), path, buf.Bytes()); err != nil {
		return object.ZeroID, err
	}
	return id, nil
}

// PutMany implements BatchStore. The batch is encoded and hashed up front,
// grouped by fanout directory, and each directory is handled with one
// locked scan: a single ReadDir replaces a stat per object, and only the
// objects the scan proves absent are compressed and written.
func (s *FileStore) PutMany(objs []object.Object) ([]object.ID, error) {
	ids := make([]object.ID, len(objs))
	encs := make([][]byte, len(objs))
	byFan := make(map[byte][]int)
	for i, o := range objs {
		encs[i] = object.Encode(o)
		ids[i] = object.HashBytes(encs[i])
		byFan[ids[i][0]] = append(byFan[ids[i][0]], i)
	}
	for fan, idxs := range byFan {
		if err := s.putFanoutBatch(fan, idxs, ids, encs); err != nil {
			return nil, err
		}
	}
	return ids, nil
}

// PutManyEncoded implements RawBatchStore: canonical encodings are
// compressed and written with no re-encode/re-hash, one directory scan
// and one lock acquisition per fanout dir.
func (s *FileStore) PutManyEncoded(batch []Encoded) error {
	ids := make([]object.ID, len(batch))
	encs := make([][]byte, len(batch))
	byFan := make(map[byte][]int)
	for i, e := range batch {
		ids[i] = e.ID
		encs[i] = e.Enc
		byFan[e.ID[0]] = append(byFan[e.ID[0]], i)
	}
	for fan, idxs := range byFan {
		if err := s.putFanoutBatch(fan, idxs, ids, encs); err != nil {
			return err
		}
	}
	return nil
}

// presentNames reports which of the given object file names exist in one
// fanout dir, under a single lock acquisition: individual stats for small
// queries (an incremental commit typically lands one object per fanout
// dir, and a directory scan would grow with repository size), one
// directory scan for large ones. The ReadDir form may report names beyond
// those queried; callers test membership only.
func (s *FileStore) presentNames(fan byte, names []string) (map[string]bool, error) {
	mu := &s.locks[fan]
	dir := filepath.Join(s.root, fmt.Sprintf("%02x", fan))
	if len(names) < 8 {
		present := make(map[string]bool, len(names))
		mu.RLock()
		defer mu.RUnlock()
		for _, name := range names {
			_, err := os.Stat(filepath.Join(dir, name))
			if err == nil {
				present[name] = true
			} else if !os.IsNotExist(err) {
				return nil, err
			}
		}
		return present, nil
	}
	mu.RLock()
	entries, err := os.ReadDir(dir)
	mu.RUnlock()
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	present := make(map[string]bool, len(entries))
	for _, e := range entries {
		present[e.Name()] = true
	}
	return present, nil
}

// fanNames returns the in-fanout file names of the batch members idxs.
func fanNames(idxs []int, ids []object.ID) []string {
	names := make([]string, len(idxs))
	for j, i := range idxs {
		names[j] = ids[i].String()[2:]
	}
	return names
}

// putFanoutBatch stores the batch members that live in one fanout dir.
func (s *FileStore) putFanoutBatch(fan byte, idxs []int, ids []object.ID, encs [][]byte) error {
	mu := &s.locks[fan]
	dir := filepath.Join(s.root, fmt.Sprintf("%02x", fan))

	names := fanNames(idxs, ids)
	present, err := s.presentNames(fan, names)
	if err != nil {
		return fmt.Errorf("store: scan fanout dir: %w", err)
	}

	type pending struct {
		name string
		buf  *bytes.Buffer
	}
	var missing []pending
	defer func() {
		for _, p := range missing {
			compressBufPool.Put(p.buf)
		}
	}()
	for j, i := range idxs {
		name := names[j]
		if present[name] {
			continue
		}
		present[name] = true // dedupe within the batch
		buf, err := compress(encs[i])
		if err != nil {
			return err
		}
		missing = append(missing, pending{name: name, buf: buf})
	}
	if len(missing) == 0 {
		return nil
	}

	mu.Lock()
	defer mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: fanout dir: %w", err)
	}
	for _, p := range missing {
		if err := writeObjectLocked(dir, filepath.Join(dir, p.name), p.buf.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// Get implements Store.
func (s *FileStore) Get(id object.ID) (object.Object, error) {
	mu := s.stripe(id)
	mu.RLock()
	compressed, err := os.ReadFile(s.pathFor(id))
	mu.RUnlock()
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ErrNotFound
		}
		return nil, fmt.Errorf("store: open: %w", err)
	}
	// Decompress and verify outside the lock.
	enc, err := decompress(compressed)
	if err != nil {
		return nil, fmt.Errorf("store: object %s corrupt: %w", id.Short(), err)
	}
	if object.HashBytes(enc) != id {
		return nil, fmt.Errorf("store: object %s fails hash verification", id.Short())
	}
	return object.Decode(enc)
}

// Has implements Store.
func (s *FileStore) Has(id object.ID) (bool, error) {
	mu := s.stripe(id)
	mu.RLock()
	defer mu.RUnlock()
	_, err := os.Stat(s.pathFor(id))
	if err == nil {
		return true, nil
	}
	if os.IsNotExist(err) {
		return false, nil
	}
	return false, err
}

// HasMany implements BatchStore: queries are grouped by fanout dir, each
// group answered by one presentNames pass (one lock acquisition; stats or
// a directory scan depending on group size).
func (s *FileStore) HasMany(ids []object.ID) ([]bool, error) {
	have := make([]bool, len(ids))
	byFan := make(map[byte][]int)
	for i, id := range ids {
		byFan[id[0]] = append(byFan[id[0]], i)
	}
	for fan, idxs := range byFan {
		names := fanNames(idxs, ids)
		present, err := s.presentNames(fan, names)
		if err != nil {
			return nil, err
		}
		for j, i := range idxs {
			have[i] = present[names[j]]
		}
	}
	return have, nil
}

// IDs implements Store.
func (s *FileStore) IDs() ([]object.ID, error) {
	// No locks needed: writes land via atomic rename, so a directory scan
	// only ever sees complete objects (in-flight temp files are skipped).
	var ids []object.ID
	fanouts, err := os.ReadDir(s.root)
	if err != nil {
		return nil, err
	}
	for _, fan := range fanouts {
		if !fan.IsDir() || len(fan.Name()) != 2 {
			continue
		}
		ids, err = s.appendFanoutIDs(ids, fan.Name())
		if err != nil {
			return nil, err
		}
	}
	return ids, nil
}

// appendFanoutIDs appends every object ID stored in one fanout dir.
func (s *FileStore) appendFanoutIDs(ids []object.ID, fan string) ([]object.ID, error) {
	files, err := os.ReadDir(filepath.Join(s.root, fan))
	if err != nil {
		if os.IsNotExist(err) {
			return ids, nil
		}
		return nil, err
	}
	for _, f := range files {
		if strings.HasPrefix(f.Name(), ".tmp-") {
			continue
		}
		id, err := object.ParseID(fan + f.Name())
		if err != nil {
			continue // foreign file; ignore
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// IDsByPrefix implements PrefixSearcher. The fanout layout IS the ordered
// index: a prefix of two or more hex characters names exactly one fanout
// directory, so the scan reads one directory instead of the whole store
// (a one-character prefix reads its 16 candidate directories).
func (s *FileStore) IDsByPrefix(prefix string, limit int) ([]object.ID, error) {
	if _, _, err := prefixBounds(prefix); err != nil {
		return nil, err
	}
	prefix = strings.ToLower(prefix)
	fans := []string{prefix[:min(2, len(prefix))]}
	if len(prefix) == 1 {
		fans = fans[:0]
		for _, c := range "0123456789abcdef" {
			fans = append(fans, prefix+string(c))
		}
	}
	var out []object.ID
	for _, fan := range fans {
		ids, err := s.appendFanoutIDs(nil, fan)
		if err != nil {
			return nil, err
		}
		for _, id := range ids {
			if !strings.HasPrefix(id.String(), prefix) {
				continue
			}
			out = append(out, id)
			if limit > 0 && len(out) == limit {
				return out, nil
			}
		}
	}
	return out, nil
}

// Len implements Store.
func (s *FileStore) Len() (int, error) {
	ids, err := s.IDs()
	if err != nil {
		return 0, err
	}
	return len(ids), nil
}
