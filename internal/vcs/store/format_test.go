package store

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"fmt"
	"hash/adler32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/gitcite/gitcite/internal/vcs/object"
)

// storedPayload parses z as a zlib stream made only of stored deflate
// blocks (BTYPE 00) behind a header with FLEVEL 0, and returns the bytes
// those blocks carry. Any other block type fails the test: the reader is
// deliberately not an inflater, so a Huffman block cannot pass as stored.
func storedPayload(t *testing.T, z []byte) []byte {
	t.Helper()
	if len(z) < 2+5+4 {
		t.Fatalf("zlib stream of %d bytes is too short to hold a stored block", len(z))
	}
	cmf, flg := z[0], z[1]
	if cmf&0x0f != 8 || (uint16(cmf)<<8|uint16(flg))%31 != 0 || flg&0x20 != 0 {
		t.Fatalf("bad zlib header %#x %#x", cmf, flg)
	}
	if level := flg >> 6; level != 0 {
		t.Fatalf("zlib header FLEVEL = %d, want 0", level)
	}
	var out []byte
	pos := 2
	for {
		// A stored block's 3 header bits start on a byte boundary when
		// every block before it was stored, and the rest of that byte is
		// padding; LEN and NLEN follow, little-endian.
		if pos+5 > len(z)-4 {
			t.Fatalf("stream ends inside a block header at byte %d", pos)
		}
		hdr := z[pos]
		if btype := hdr >> 1 & 3; btype != 0 {
			t.Fatalf("block at byte %d has BTYPE %02b, want 00 (stored)", pos, btype)
		}
		n := binary.LittleEndian.Uint16(z[pos+1:])
		if nlen := binary.LittleEndian.Uint16(z[pos+3:]); nlen != ^n {
			t.Fatalf("block at byte %d: NLEN %#x is not the complement of LEN %#x", pos, nlen, n)
		}
		pos += 5
		if pos+int(n) > len(z)-4 {
			t.Fatalf("block at byte %d overruns the stream", pos-5)
		}
		out = append(out, z[pos:pos+int(n)]...)
		pos += int(n)
		if hdr&1 == 1 {
			break
		}
	}
	if len(z)-pos != 4 {
		t.Fatalf("%d bytes after the final block, want the 4-byte Adler-32", len(z)-pos)
	}
	if got, want := binary.BigEndian.Uint32(z[pos:]), adler32.Checksum(out); got != want {
		t.Fatalf("Adler-32 %#x, want %#x", got, want)
	}
	return out
}

// firstBlockType reports the BTYPE of the first deflate block of zlib
// stream z.
func firstBlockType(z []byte) byte { return z[2] >> 1 & 3 }

// formatObjects returns one object of each kind plus a tree wider than one
// 64 KB stored block, keyed by a name for messages.
func formatObjects(t *testing.T) map[string]object.Object {
	t.Helper()
	blob := object.NewBlobString(strings.Repeat(`{"path":"/src/main.go","owner":"alice","repo":"proj","version":"v1"}`+"\n", 40))
	blobID := object.Hash(blob)
	small, err := object.NewTree([]object.TreeEntry{
		{Name: "citation.cite", Mode: object.ModeFile, ID: blobID},
		{Name: "src", Mode: object.ModeDir, ID: object.HashBytes([]byte("src"))},
	})
	if err != nil {
		t.Fatal(err)
	}
	wideEntries := make([]object.TreeEntry, 2000) // ~100 KB: two stored blocks
	for i := range wideEntries {
		wideEntries[i] = object.TreeEntry{Name: fmt.Sprintf("file-%05d.txt", i), Mode: object.ModeFile, ID: object.HashBytes([]byte{byte(i), byte(i >> 8)})}
	}
	wide, err := object.NewTree(wideEntries)
	if err != nil {
		t.Fatal(err)
	}
	sig := object.Signature{Name: "alice", Email: "alice@x", When: time.Unix(1, 0).UTC()}
	commit := &object.Commit{TreeID: object.Hash(small), Author: sig, Committer: sig, Message: "cite"}
	return map[string]object.Object{"blob": blob, "tree": small, "wide-tree": wide, "commit": commit}
}

// TestRecordFormatByKind pins the payload format by kind: a tree or commit
// payload is a zlib stream of stored blocks that carry the canonical
// encoding verbatim, while a blob is deflated. PackStore is what every
// repository writes; FileStore is the legacy loose layout as the fixture
// writer lays it out, the files the loose tier reads and Repack moves into
// a pack byte for byte.
func TestRecordFormatByKind(t *testing.T) {
	objs := formatObjects(t)
	batch := make([]Encoded, 0, len(objs))
	names := map[object.ID]string{}
	for name, o := range objs {
		enc := object.Encode(o)
		id := object.HashBytes(enc)
		batch = append(batch, Encoded{ID: id, Enc: enc})
		names[id] = name
	}

	fs, err := newLooseWriter(filepath.Join(t.TempDir(), "objects"))
	if err != nil {
		t.Fatal(err)
	}
	ps := newTestPackStore(t, filepath.Join(t.TempDir(), "objects"))
	raw := map[string]func(object.ID) []byte{
		"FileStore": func(id object.ID) []byte {
			z, err := os.ReadFile(fs.pathFor(id))
			if err != nil {
				t.Fatal(err)
			}
			return z
		},
		"PackStore": func(id object.ID) []byte {
			var buf []byte
			z, found, err := ps.readPacked(id, &buf)
			if err != nil || !found {
				t.Fatalf("readPacked %s: found %v, err %v", id.Short(), found, err)
			}
			return z
		},
	}
	if err := fs.PutManyEncoded(batch); err != nil {
		t.Fatal(err)
	}
	if err := ps.PutManyEncoded(batch); err != nil {
		t.Fatal(err)
	}
	for backend, payload := range raw {
		for _, e := range batch {
			name := names[e.ID]
			t.Run(backend+"/"+name, func(t *testing.T) {
				z := payload(e.ID)
				if name == "blob" {
					if firstBlockType(z) == 0 {
						t.Fatal("blob payload is a stored block, want deflated")
					}
					if len(z) >= len(e.Enc) {
						t.Errorf("blob payload %d bytes for a %d-byte encoding", len(z), len(e.Enc))
					}
					if got, err := decompress(z); err != nil || !bytes.Equal(got, e.Enc) {
						t.Fatalf("blob payload does not inflate to its encoding (err %v)", err)
					}
					return
				}
				if got := storedPayload(t, z); !bytes.Equal(got, e.Enc) {
					t.Fatal("stored blocks do not carry the exact encoding")
				}
				if got, err := decompress(z); err != nil || !bytes.Equal(got, e.Enc) {
					t.Fatalf("payload does not inflate to its encoding (err %v)", err)
				}
			})
		}
	}
}

// TestBestSpeedRecordsStillRead builds a store in the layout every writer
// before per-kind levels left behind, with trees and commits deflated at
// BestSpeed in loose files and in a pack, and checks that it opens, reads
// every object, and that Repack folds its records byte for byte.
func TestBestSpeedRecordsStillRead(t *testing.T) {
	legacy := func(enc []byte) []byte {
		var buf bytes.Buffer
		zw, err := zlib.NewWriterLevel(&buf, zlib.BestSpeed)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := zw.Write(enc); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	mem := NewMemoryStore()
	tip := randomHistory(t, mem, 35)
	want := closureFingerprint(t, mem, tip)
	ids, err := closureIDs(mem, tip)
	if err != nil {
		t.Fatal(err)
	}
	encs := map[object.ID][]byte{}
	payloads := map[object.ID][]byte{}
	deflatedTrees := 0
	for _, id := range ids {
		o, err := mem.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		encs[id] = object.Encode(o)
		payloads[id] = legacy(encs[id])
		if o.Type() != object.TypeBlob && firstBlockType(payloads[id]) != 0 {
			deflatedTrees++
		}
	}
	if deflatedTrees == 0 {
		t.Fatal("no tree or commit was deflated at BestSpeed: the fixture is not the legacy layout")
	}

	// Even-indexed objects go loose, odd-indexed ones into one pack
	// appended through the pack writer with the legacy payloads.
	dir := filepath.Join(t.TempDir(), "objects")
	fs, err := newLooseWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	var packIDs []object.ID
	var packPayloads [][]byte
	for i, id := range ids {
		if i%2 == 1 {
			packIDs = append(packIDs, id)
			packPayloads = append(packPayloads, payloads[id])
			continue
		}
		path := fs.pathFor(id)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, payloads[id], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ps, err := NewPackStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ps.mu.Lock()
	err = ps.appendLocked(packIDs, packPayloads)
	ps.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}

	getsEverything := func(what string, s Store) {
		t.Helper()
		for _, id := range ids {
			o, err := s.Get(id)
			if err != nil {
				t.Fatalf("%s: Get %s: %v", what, id.Short(), err)
			}
			if !bytes.Equal(object.Encode(o), encs[id]) {
				t.Fatalf("%s: Get %s decodes to a different encoding", what, id.Short())
			}
		}
		if got := closureFingerprint(t, s, tip); got != want {
			t.Fatalf("%s: closure differs from the MemoryStore it was built from", what)
		}
	}
	loose := &looseStore{root: dir}
	for i, id := range ids {
		if i%2 == 0 {
			if o, err := loose.Get(id); err != nil || !bytes.Equal(object.Encode(o), encs[id]) {
				t.Fatalf("loose tier: Get %s: err %v", id.Short(), err)
			}
		}
	}
	reopened := newTestPackStore(t, dir)
	getsEverything("reopened PackStore", reopened)

	// Two packs (the legacy one and a fresh append) plus the loose tier
	// force a real fold rather than the one-pack fast path.
	fresh, err := reopened.Put(object.NewBlobString("written after per-kind levels"))
	if err != nil {
		t.Fatal(err)
	}
	folded, err := reopened.Repack()
	if err != nil {
		t.Fatalf("Repack: %v", err)
	}
	if folded != (len(ids)+1)/2 {
		t.Errorf("Repack folded %d loose objects, want %d", folded, (len(ids)+1)/2)
	}
	var buf []byte
	for _, id := range ids {
		z, found, err := reopened.readPacked(id, &buf)
		if err != nil || !found {
			t.Fatalf("after Repack: %s not packed (err %v)", id.Short(), err)
		}
		if !bytes.Equal(z, payloads[id]) {
			t.Fatalf("after Repack: %s's record is not the BestSpeed payload it was written with", id.Short())
		}
	}
	if ok, _ := reopened.Has(fresh); !ok {
		t.Error("object written before Repack lost")
	}
	getsEverything("repacked PackStore", reopened)
	if err := reopened.Close(); err != nil {
		t.Fatal(err)
	}
	getsEverything("repacked and reopened PackStore", newTestPackStore(t, dir))
}
