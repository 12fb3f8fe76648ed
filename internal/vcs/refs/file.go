package refs

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"github.com/gitcite/gitcite/internal/vcs/object"
)

// FileStore persists references as small text files under a root directory
// (root/refs/heads/<branch>, root/refs/tags/<tag>) and HEAD as root/HEAD,
// the layout used inside the local tool's ".gitcite" directory.
//
// A branch or tag file holds two fixed-width slots, each
//
//	<seq 16 hex> <id 64 hex> <crc32 8 hex>\n
//
// 91 bytes, so the file is 182; the CRC-32 covers the seq, the space and
// the ID. The ref's value is the slot that passes its CRC and carries the
// higher seq. A move reads the file, writes seq+1 and the new ID over the
// other slot with one WriteAt, and closes the file: no new inode, no
// rename. A write torn anywhere inside its slot fails that slot's CRC, so
// a reader gets the previous value, which is the old-or-new guarantee the
// rename gave; both slots lie in the file's first 512-byte sector.
// Creating a ref, and the first move of a file in the legacy layout (the
// bare "<id 64 hex>\n" of refs written before the slots), write the whole
// file once by temp file and rename. Get, List and Delete accept both
// layouts. HEAD keeps its one-line text file: it moves on checkout, never
// on the commit path.
//
// Nothing is fsync'd, before or after a write. The in-place move assumes
// one writing process per directory: the store's mutex serialises writers
// inside a process, and nothing serialises two processes.
type FileStore struct {
	root string
	mu   sync.RWMutex
}

const (
	// slotLen is one slot's width and refFileLen the slotted file's.
	slotLen    = 16 + 1 + 2*object.IDSize + 1 + 8 + 1
	refFileLen = 2 * slotLen
	// slotSumLen is the prefix of a slot its CRC covers: seq, space, ID.
	slotSumLen = 16 + 1 + 2*object.IDSize
)

// errCorruptRef reports a ref file in neither layout, or a slotted one
// whose slots both fail their CRC.
var errCorruptRef = errors.New("refs: corrupt ref file")

// encodeSlot renders the slot that makes id the ref's seq'th value.
func encodeSlot(seq uint64, id object.ID) (slot [slotLen]byte) {
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], seq)
	hex.Encode(slot[:16], n[:])
	slot[16] = ' '
	hex.Encode(slot[17:slotSumLen], id[:])
	slot[slotSumLen] = ' '
	binary.BigEndian.PutUint32(n[:4], crc32.ChecksumIEEE(slot[:slotSumLen]))
	hex.Encode(slot[slotSumLen+1:slotLen-1], n[:4])
	slot[slotLen-1] = '\n'
	return slot
}

// decodeSlot parses one slot; ok is false unless its shape, hex and CRC
// all check.
func decodeSlot(b []byte) (seq uint64, id object.ID, ok bool) {
	if len(b) != slotLen || b[16] != ' ' || b[slotSumLen] != ' ' || b[slotLen-1] != '\n' {
		return 0, id, false
	}
	var n [8]byte
	if _, err := hex.Decode(n[:4], b[slotSumLen+1:slotLen-1]); err != nil ||
		binary.BigEndian.Uint32(n[:4]) != crc32.ChecksumIEEE(b[:slotSumLen]) {
		return 0, id, false
	}
	if _, err := hex.Decode(n[:], b[:16]); err != nil {
		return 0, id, false
	}
	if _, err := hex.Decode(id[:], b[17:slotSumLen]); err != nil {
		return 0, id, false
	}
	return binary.BigEndian.Uint64(n[:]), id, true
}

// decodeRefFile reads a ref file in either layout. For a slotted file it
// also reports the seq and index of the slot holding the value; a legacy
// file reports slot -1.
func decodeRefFile(data []byte) (id object.ID, seq uint64, slot int, err error) {
	if len(data) != refFileLen {
		id, err := object.ParseID(strings.TrimSpace(string(data)))
		if err != nil {
			return object.ZeroID, 0, -1, fmt.Errorf("%w: %v", errCorruptRef, err)
		}
		return id, 0, -1, nil
	}
	slot = -1
	for i := 0; i < 2; i++ {
		s, v, ok := decodeSlot(data[i*slotLen : (i+1)*slotLen])
		if ok && (slot < 0 || s > seq) {
			id, seq, slot = v, s, i
		}
	}
	if slot < 0 {
		return object.ZeroID, 0, -1, fmt.Errorf("%w: both slots fail their check", errCorruptRef)
	}
	return id, seq, slot, nil
}

// NewFileStore opens (creating if necessary) a file-backed ref store. A
// fresh store gets a HEAD pointing at the unborn branch "main".
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("refs: create root: %w", err)
	}
	s := &FileStore{root: dir}
	if _, err := os.Stat(s.headPath()); os.IsNotExist(err) {
		if err := s.SetHEAD(HEAD{Symbolic: BranchRef("main")}); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *FileStore) headPath() string { return filepath.Join(s.root, "HEAD") }

func (s *FileStore) refPath(name string) string {
	return filepath.Join(s.root, filepath.FromSlash(name))
}

// Set implements Store. An existing slotted file is moved in place; a new
// ref, or a legacy or unreadable file, is written whole.
func (s *FileStore) Set(name string, id object.ID) error {
	if err := ValidateName(name); err != nil {
		return err
	}
	if id.IsZero() {
		return fmt.Errorf("refs: refusing to set %q to the zero ID", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	path := s.refPath(name)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	switch {
	case err == nil:
		moved, err := moveSlot(f, id)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if moved || err != nil {
			return err
		}
	case os.IsNotExist(err):
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return fmt.Errorf("refs: mkdir: %w", err)
		}
	default:
		return err
	}
	// Both slots name id, so the file reads the same whichever slot the
	// next move tears.
	var data [refFileLen]byte
	first, second := encodeSlot(1, id), encodeSlot(0, id)
	copy(data[:slotLen], first[:])
	copy(data[slotLen:], second[:])
	return atomicWrite(path, data[:])
}

// moveSlot writes id over the slot of f that does not hold the ref's
// value, one seq higher. It reports false, having written nothing, when f
// is not a readable slotted file.
func moveSlot(f *os.File, id object.ID) (bool, error) {
	var buf [refFileLen + 1]byte
	n, err := f.ReadAt(buf[:], 0)
	if err != nil && err != io.EOF {
		return false, err
	}
	if n != refFileLen {
		return false, nil
	}
	_, seq, cur, err := decodeRefFile(buf[:n])
	if err != nil {
		return false, nil
	}
	slot := encodeSlot(seq+1, id)
	_, err = f.WriteAt(slot[:], int64((1-cur)*slotLen))
	return true, err
}

// Get implements Store.
func (s *FileStore) Get(name string) (object.ID, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	data, err := os.ReadFile(s.refPath(name))
	if err != nil {
		if os.IsNotExist(err) {
			return object.ZeroID, fmt.Errorf("%w: %s", ErrNotFound, name)
		}
		return object.ZeroID, err
	}
	id, _, _, err := decodeRefFile(data)
	if err != nil {
		return object.ZeroID, fmt.Errorf("%w: %s", err, name)
	}
	return id, nil
}

// Delete implements Store.
func (s *FileStore) Delete(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := os.Remove(s.refPath(name))
	if os.IsNotExist(err) {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return err
}

// List implements Store.
func (s *FileStore) List() ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var names []string
	base := filepath.Join(s.root, "refs")
	err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			if os.IsNotExist(err) {
				return nil
			}
			return err
		}
		if d.IsDir() {
			return nil
		}
		rel, err := filepath.Rel(s.root, path)
		if err != nil {
			return err
		}
		names = append(names, filepath.ToSlash(rel))
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	return names, nil
}

// SetHEAD implements Store.
func (s *FileStore) SetHEAD(h HEAD) error {
	var content string
	if h.Symbolic != "" {
		if err := ValidateName(h.Symbolic); err != nil {
			return err
		}
		content = "ref: " + h.Symbolic + "\n"
	} else {
		if h.Detached.IsZero() {
			return fmt.Errorf("refs: HEAD must be symbolic or detached, not empty")
		}
		content = h.Detached.String() + "\n"
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return atomicWrite(s.headPath(), []byte(content))
}

// GetHEAD implements Store.
func (s *FileStore) GetHEAD() (HEAD, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	data, err := os.ReadFile(s.headPath())
	if err != nil {
		return HEAD{}, err
	}
	line := strings.TrimSpace(string(data))
	if target, ok := strings.CutPrefix(line, "ref: "); ok {
		return HEAD{Symbolic: target}, nil
	}
	id, err := object.ParseID(line)
	if err != nil {
		return HEAD{}, fmt.Errorf("refs: corrupt HEAD %q: %w", line, err)
	}
	return HEAD{Detached: id}, nil
}

func atomicWrite(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-ref-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}
