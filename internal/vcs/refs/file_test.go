package refs

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/gitcite/gitcite/internal/vcs/object"
)

// writeRefFile puts raw bytes at a ref's path, as a crash or an older
// version of the store would have left them.
func writeRefFile(t testing.TB, s *FileStore, name string, data []byte) {
	t.Helper()
	path := s.refPath(name)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func slotFile(a, b [slotLen]byte) []byte {
	return append(append([]byte{}, a[:]...), b[:]...)
}

// TestTornSlotReadsOldOrNew tears the write of a new slot at each of its
// 92 prefix lengths (new bytes over the old slot's), and zeroes it: Get
// answers the value before the write or the one it carried, never the
// stale ID the overwritten slot held and never a panic. A Set after the
// tear lands. Both slots invalid is an error.
func TestTornSlotReadsOldOrNew(t *testing.T) {
	const name = "refs/heads/main"
	cur, stale, next := id("current"), id("stale"), id("next")
	curSlot, staleSlot, nextSlot := encodeSlot(5, cur), encodeSlot(4, stale), encodeSlot(6, next)
	s, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for curAt := 0; curAt < 2; curAt++ {
		for k := 0; k <= slotLen+1; k++ {
			var torn [slotLen]byte // k == slotLen+1: the slot zeroed
			if k <= slotLen {
				copy(torn[:], staleSlot[:])
				copy(torn[:k], nextSlot[:k])
			}
			data := slotFile(curSlot, torn)
			if curAt == 1 {
				data = slotFile(torn, curSlot)
			}
			writeRefFile(t, s, name, data)
			got, err := s.Get(name)
			if err != nil {
				t.Fatalf("value in slot %d, tear at %d: %v", curAt, k, err)
			}
			want := cur
			if torn == nextSlot { // from k = 90 on: the slot's last byte is always '\n'
				want = next
			}
			if got != want {
				t.Fatalf("value in slot %d, tear at %d: Get = %s, want %s", curAt, k, got.Short(), want.Short())
			}
			after := id(fmt.Sprintf("after %d %d", curAt, k))
			if err := s.Set(name, after); err != nil {
				t.Fatal(err)
			}
			if got, err := s.Get(name); err != nil || got != after {
				t.Fatalf("Set after a tear at %d: Get = %s, %v", k, got.Short(), err)
			}
		}
	}
	var zero [slotLen]byte
	for _, data := range [][]byte{slotFile(zero, zero), slotFile(staleSlot, staleSlot)[:refFileLen-1], bytes.Repeat([]byte{'f'}, refFileLen)} {
		writeRefFile(t, s, name, data)
		if got, err := s.Get(name); !errors.Is(err, errCorruptRef) {
			t.Fatalf("corrupt file %q: Get = %s, %v; want errCorruptRef", data, got.Short(), err)
		}
	}
}

// TestSetMovesInPlace: after the Set that creates a ref, every move
// rewrites the same inode, leaves the value it replaced intact in the
// other slot (what a reader falls back to if the write tears), and
// leaves no temp file behind.
func TestSetMovesInPlace(t *testing.T) {
	const name = "refs/heads/dev/x"
	s, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Set(name, id("v0")); err != nil {
		t.Fatal(err)
	}
	first, err := os.Stat(s.refPath(name))
	if err != nil {
		t.Fatal(err)
	}
	prev := id("v0")
	for i := 1; i <= 100; i++ {
		want := id(fmt.Sprintf("v%d", i))
		if err := s.Set(name, want); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(s.refPath(name))
		if err != nil {
			t.Fatal(err)
		}
		seqA, idA, okA := decodeSlot(data[:slotLen])
		seqB, idB, okB := decodeSlot(data[slotLen:])
		if seqA > seqB {
			seqA, idA, seqB, idB = seqB, idB, seqA, idA
		}
		if !okA || !okB || seqB != seqA+1 || idA != prev || idB != want {
			t.Fatalf("move %d: slots (%d %s %v) (%d %s %v); want the old value one seq below the new",
				i, seqA, idA.Short(), okA, seqB, idB.Short(), okB)
		}
		prev = want
		fi, err := os.Stat(s.refPath(name))
		if err != nil {
			t.Fatal(err)
		}
		if !os.SameFile(first, fi) {
			t.Fatalf("move %d replaced the ref file", i)
		}
		if fi.Size() != refFileLen {
			t.Fatalf("move %d: file is %d bytes, want %d", i, fi.Size(), refFileLen)
		}
		if got, err := s.Get(name); err != nil || got != want {
			t.Fatalf("move %d: Get = %s, %v", i, got.Short(), err)
		}
	}
	tmps, err := filepath.Glob(filepath.Join(filepath.Dir(s.refPath(name)), ".tmp-ref-*"))
	if err != nil || len(tmps) != 0 {
		t.Fatalf("temp files left behind: %v (%v)", tmps, err)
	}
}

// oracleSlotID checks one slot the long way round — split on spaces and
// strconv — and returns its seq and ID when it is valid.
func oracleSlotID(b []byte) (uint64, object.ID, bool) {
	if len(b) != 91 || b[90] != '\n' {
		return 0, object.ZeroID, false
	}
	fields := strings.Split(string(b[:90]), " ")
	if len(fields) != 3 || len(fields[0]) != 16 || len(fields[2]) != 8 {
		return 0, object.ZeroID, false
	}
	seq, err := strconv.ParseUint(fields[0], 16, 64)
	if err != nil {
		return 0, object.ZeroID, false
	}
	oid, err := object.ParseID(fields[1])
	if err != nil {
		return 0, object.ZeroID, false
	}
	sum, err := strconv.ParseUint(fields[2], 16, 32)
	if err != nil || uint32(sum) != crc32.ChecksumIEEE(b[:81]) {
		return 0, object.ZeroID, false
	}
	return seq, oid, true
}

// FuzzRefFile: reading a ref file never panics, and whatever it accepts is
// the ID of a valid slot holding the higher seq, or the legacy line's ID.
func FuzzRefFile(f *testing.F) {
	a, b := encodeSlot(7, id("a")), encodeSlot(8, id("b"))
	f.Add(slotFile(a, b))
	f.Add([]byte(id("legacy").String() + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, _, _, err := decodeRefFile(data)
		if err != nil {
			return
		}
		if len(data) != refFileLen {
			if want, perr := object.ParseID(strings.TrimSpace(string(data))); perr != nil || got != want {
				t.Fatalf("accepted %q as %s; the legacy reading is %s (%v)", data, got, want, perr)
			}
			return
		}
		best, found := uint64(0), false
		var want object.ID
		for i := 0; i < 2; i++ {
			if seq, oid, ok := oracleSlotID(data[i*91 : (i+1)*91]); ok && (!found || seq > best) {
				best, want, found = seq, oid, true
			}
		}
		if !found || got != want {
			t.Fatalf("accepted %q as %s; the oracle reads %s (valid slot: %v)", data, got, want, found)
		}
	})
}

// TestGenerateRefFileCorpus rewrites FuzzRefFile's committed seed corpus.
// Env-gated: GEN_FUZZ_CORPUS=1 go test -run TestGenerateRefFileCorpus.
func TestGenerateRefFileCorpus(t *testing.T) {
	if os.Getenv("GEN_FUZZ_CORPUS") == "" {
		t.Skip("corpus generator; set GEN_FUZZ_CORPUS=1 to rewrite testdata/fuzz")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzRefFile")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	a, b := encodeSlot(1, id("a")), encodeSlot(2, id("b"))
	var zero [slotLen]byte
	torn := b
	copy(torn[40:], a[40:])
	seeds := map[string][]byte{
		"slots":          slotFile(a, b),
		"slots-swapped":  slotFile(b, a),
		"slot-zeroed":    slotFile(a, zero),
		"slot-torn":      slotFile(a, torn),
		"both-invalid":   slotFile(zero, torn),
		"legacy":         []byte(id("legacy").String() + "\n"),
		"legacy-no-eol":  []byte(id("legacy").String()),
		"short":          slotFile(a, b)[:refFileLen-1],
		"upper-case-seq": bytes.ToUpper(slotFile(a, b)),
	}
	for name, data := range seeds {
		content := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
