// packseg.go implements the incremental half of the pack index format: a
// sidecar segment journal (`pack-NNNNNN.seg`) that records, per append
// batch, just that batch's index entries. The base `.idx` is a sorted
// snapshot covering a prefix of the pack; the journal extends it forward,
// one O(batch) segment per batch, so an append writes index bytes
// proportional to the batch — never to the pack. Segments are merged into
// the base index lazily, when the pack is next opened or when appends roll
// to a fresh pack, and the journal is deleted once merged.
//
// Journal layout: an 8-byte magic, then segments of
//
//	count u32 | start u64 | end u64 | count × (id[32] | off u64 | clen u32) | crc32 u32
//
// where [start, end) is the pack byte range the batch covered and the CRC
// (IEEE, over everything from count up to the last entry) guards against
// torn or reordered writes. The journal is the acknowledgement log: a pack
// record whose segment never landed was never acknowledged to the writer,
// so replay stops — mirroring the pack's own torn-tail rule — at the first
// segment that is torn, fails its CRC, does not continue contiguously from
// the bytes already covered, or claims pack bytes that do not exist (the
// "segment landed, pack bytes did not" crash order; without fsync the two
// files may persist in either order). Segments wholly below the base
// index's coverage are skipped: they were already merged by an open that
// crashed before deleting the journal.
package store

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io/fs"
	"os"
	"strings"

	"github.com/gitcite/gitcite/internal/vcs/object"
)

const (
	packSegMagic = "GCSG\x00\x00\x00\x01"
	// segEntrySize matches the base index's entry encoding.
	segEntrySize = object.IDSize + 8 + 4
	// segHeaderSize is count u32 | start u64 | end u64.
	segHeaderSize = 4 + 8 + 8
	// segTrailerSize is the crc32 over header+entries.
	segTrailerSize = 4
)

func segPathFor(packPath string) string {
	return strings.TrimSuffix(packPath, ".pack") + ".seg"
}

// encodeSegment serialises one batch's entries as a journal segment
// covering pack bytes [start, end).
func encodeSegment(entries []packEntry, start, end int64) []byte {
	buf := make([]byte, 0, segHeaderSize+len(entries)*segEntrySize+segTrailerSize)
	var u32 [4]byte
	var u64 [8]byte
	binary.BigEndian.PutUint32(u32[:], uint32(len(entries)))
	buf = append(buf, u32[:]...)
	binary.BigEndian.PutUint64(u64[:], uint64(start))
	buf = append(buf, u64[:]...)
	binary.BigEndian.PutUint64(u64[:], uint64(end))
	buf = append(buf, u64[:]...)
	for _, e := range entries {
		buf = append(buf, e.id[:]...)
		binary.BigEndian.PutUint64(u64[:], uint64(e.off))
		buf = append(buf, u64[:]...)
		binary.BigEndian.PutUint32(u32[:], e.clen)
		buf = append(buf, u32[:]...)
	}
	binary.BigEndian.PutUint32(u32[:], crc32.ChecksumIEEE(buf))
	return append(buf, u32[:]...)
}

// loadSegments replays the journal at path against a base index covering
// baseCovered bytes of a packSize-byte pack, returning the entries of every
// acknowledged batch beyond the base together with the extended coverage.
// Replay never fails: anything invalid — a torn or CRC-failing segment, a
// coverage gap, a segment claiming bytes the pack does not have — ends the
// acknowledged history right there, exactly like a torn pack tail. A
// missing or unreadable journal contributes nothing. found reports whether a
// journal file exists, for the caller to delete once it is merged.
func loadSegments(path string, baseCovered, packSize int64) ([]packEntry, int64, bool) {
	data, err := os.ReadFile(path)
	found := !errors.Is(err, fs.ErrNotExist)
	if err != nil || len(data) < len(packSegMagic) || string(data[:len(packSegMagic)]) != packSegMagic {
		return nil, baseCovered, found
	}
	data = data[len(packSegMagic):]
	var entries []packEntry
	covered := baseCovered
	for len(data) >= segHeaderSize+segTrailerSize {
		count := int(binary.BigEndian.Uint32(data))
		// Bound count by what could possibly fit BEFORE multiplying, so a
		// garbage count field cannot overflow the length arithmetic on
		// 32-bit platforms — it must read as a torn tail, never a panic.
		if count <= 0 || count > (len(data)-segHeaderSize-segTrailerSize)/segEntrySize {
			break // torn tail (or garbage count)
		}
		segLen := segHeaderSize + count*segEntrySize + segTrailerSize
		body, crc := data[:segLen-segTrailerSize], binary.BigEndian.Uint32(data[segLen-segTrailerSize:])
		if crc32.ChecksumIEEE(body) != crc {
			break
		}
		start := int64(binary.BigEndian.Uint64(body[4:]))
		end := int64(binary.BigEndian.Uint64(body[12:]))
		if end <= start {
			break
		}
		if end <= baseCovered {
			// Already merged into the base index by an earlier open that
			// crashed before deleting the journal; skip, keep replaying.
			data = data[segLen:]
			continue
		}
		if start != covered || end > packSize {
			// A gap (this segment's batch was never fully acknowledged
			// relative to what precedes it) or a claim on pack bytes that
			// never landed: the acknowledged history ends here.
			break
		}
		seg := make([]packEntry, 0, count)
		for i := 0; i < count; i++ {
			var e packEntry
			ent := body[segHeaderSize+i*segEntrySize:]
			copy(e.id[:], ent[:object.IDSize])
			e.off = int64(binary.BigEndian.Uint64(ent[object.IDSize:]))
			e.clen = binary.BigEndian.Uint32(ent[object.IDSize+8:])
			if e.off < start+packRecHeader || e.off+int64(e.clen) > end {
				seg = nil
				break
			}
			seg = append(seg, e)
		}
		if seg == nil {
			break // an entry points outside its batch's range: corrupt segment
		}
		entries = append(entries, seg...)
		covered = end
		data = data[segLen:]
	}
	return entries, covered, found
}
