package store

import (
	"bytes"
	"compress/zlib"
	"fmt"
	"io"
	"sync"

	"github.com/gitcite/gitcite/internal/vcs/object"
)

// compressionLevel picks the zlib level of a pack-record payload by the
// object's kind, which is the first word of its canonical encoding. The
// writer picks; readers never branch on it: the payload is a
// plain zlib stream at any level, so decompress, Repack's byte-for-byte fold
// of loose files and repositories written at another level are unaffected.
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

	// zlibWriterPools recycle compressors across appends, indexed by the level
	// compressionLevel returns; Reset re-targets a writer at a new
	// destination buffer without reallocating its state.
	zlibWriterPools = [...]sync.Pool{
		zlib.NoCompression: {New: newZlibWriter(zlib.NoCompression)},
		zlib.BestSpeed:     {New: newZlibWriter(zlib.BestSpeed)},
	}
	// compressBufPool recycles the destination buffers the compressed
	// stream is staged in before the locked pack append.
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
