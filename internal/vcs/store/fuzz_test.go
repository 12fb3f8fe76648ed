package store

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"github.com/gitcite/gitcite/internal/vcs/object"
)

// The recovery fuzzers target the two crash-recovery parsers: the pack
// record scan and the segment-journal replay. Both read bytes that a crash
// may have left in any torn or half-landed state, so their contract is the
// torn-tail rule from pack.go: never panic, never error on garbage beyond
// the acknowledged history — just stop — and never return an entry that
// points outside the bytes the parser claims are covered. The seed corpus
// (testdata/fuzz) pins the crash orders pack_test.go constructs by hand:
// torn record tails, CRC-failing segments, coverage gaps, and segments
// claiming pack bytes that never landed.

// fuzzPackBytes builds a pack image: magic, then one record per payload.
func fuzzPackBytes(payloads ...[]byte) []byte {
	data := []byte(packMagic)
	for _, p := range payloads {
		id := object.HashBytes(p)
		data = append(data, id[:]...)
		var u32 [4]byte
		binary.BigEndian.PutUint32(u32[:], uint32(len(p)))
		data = append(data, u32[:]...)
		data = append(data, p...)
	}
	return data
}

func FuzzPackRecordScan(f *testing.F) {
	whole := fuzzPackBytes([]byte("alpha"), []byte("beta-longer-payload"))
	f.Add(whole)
	f.Add(whole[:len(whole)-7])      // torn tail: payload half-landed
	f.Add(whole[:len(packMagic)+20]) // torn tail: header half-landed
	f.Add([]byte("NOTAPACK"))        // bad magic
	f.Add([]byte(packMagic))         // empty pack
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "pack-000000.pack")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		fh, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer fh.Close()
		entries, covered, err := scanPackRecords(fh, int64(len(data)))
		if err != nil {
			return // bad magic / read error: rejected outright, no entries
		}
		if covered < int64(len(packMagic)) || covered > int64(len(data)) {
			t.Fatalf("covered %d outside [%d, %d]", covered, len(packMagic), len(data))
		}
		// Complete records tile the covered range exactly, in order.
		off := int64(len(packMagic))
		for i, e := range entries {
			if e.off != off+packRecHeader {
				t.Fatalf("entry %d at offset %d, want %d", i, e.off, off+packRecHeader)
			}
			off = e.off + int64(e.clen)
		}
		if off != covered {
			t.Fatalf("records end at %d but scan claims %d covered", off, covered)
		}
	})
}

// fuzzSegEntries builds n in-range entries for a segment covering
// [start, end).
func fuzzSegEntries(n int, start, end int64) []packEntry {
	entries := make([]packEntry, n)
	span := (end - start - packRecHeader) / int64(n)
	for i := range entries {
		off := start + packRecHeader + int64(i)*span
		entries[i] = packEntry{
			id:   object.HashBytes([]byte{byte(i)}),
			off:  off,
			clen: uint32(span - packRecHeader),
		}
	}
	return entries
}

func FuzzSegmentReplay(f *testing.F) {
	const baseCovered = int64(8) // == len(packMagic)
	const packSize = int64(4096)
	seg1 := encodeSegment(fuzzSegEntries(2, baseCovered, 200), baseCovered, 200)
	seg2 := encodeSegment(fuzzSegEntries(1, 200, 300), 200, 300)
	valid := append(append([]byte(packSegMagic), seg1...), seg2...)
	f.Add(valid)
	f.Add(valid[:len(valid)-5]) // torn tail: last segment half-landed
	crcFail := append([]byte{}, valid...)
	crcFail[len(crcFail)-1] ^= 0xFF // CRC failure on the last segment
	f.Add(crcFail)
	// Coverage gap: the second batch's segment landed but the first's
	// never did.
	f.Add(append([]byte(packSegMagic), seg2...))
	// Segment claiming pack bytes that never landed (end > packSize).
	tooFar := encodeSegment(fuzzSegEntries(1, baseCovered, packSize+100), baseCovered, packSize+100)
	f.Add(append([]byte(packSegMagic), tooFar...))
	f.Add([]byte("NOTAJRNL"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "pack-000000.seg")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		entries, covered, found := loadSegments(path, baseCovered, packSize)
		if !found {
			t.Fatal("an existing journal reported absent")
		}
		if covered < baseCovered || covered > packSize {
			t.Fatalf("covered %d outside [%d, %d]", covered, baseCovered, packSize)
		}
		if covered == baseCovered && len(entries) != 0 {
			t.Fatalf("%d entries but no coverage beyond the base", len(entries))
		}
		for i, e := range entries {
			if e.off <= baseCovered || e.off+int64(e.clen) > covered {
				t.Fatalf("entry %d spans [%d, %d) outside acknowledged (%d, %d]",
					i, e.off, e.off+int64(e.clen), baseCovered, covered)
			}
		}
	})
}
