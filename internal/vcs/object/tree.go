package object

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Mode describes how a tree entry is interpreted.
type Mode uint32

// Entry modes. The numeric values follow Git's conventions so encodings are
// familiar, but only these four are legal.
const (
	ModeFile       Mode = 0o100644
	ModeExecutable Mode = 0o100755
	ModeSymlink    Mode = 0o120000
	ModeDir        Mode = 0o040000
)

// IsDir reports whether the mode denotes a subtree.
func (m Mode) IsDir() bool { return m == ModeDir }

// IsFile reports whether the mode denotes file-like content (regular,
// executable or symlink), i.e. the entry references a blob.
func (m Mode) IsFile() bool { return !m.IsDir() }

// Valid reports whether m is one of the four legal modes.
func (m Mode) Valid() bool {
	switch m {
	case ModeFile, ModeExecutable, ModeSymlink, ModeDir:
		return true
	}
	return false
}

// String returns the octal form used in the canonical encoding.
func (m Mode) String() string {
	var buf [modeMaxDigits]byte
	return string(m.appendOctal(buf[:0]))
}

// modeMaxDigits is the octal width of the largest uint32.
const modeMaxDigits = 11

// appendOctal appends m in octal, zero-padded to at least six digits: the
// bytes fmt's "%06o" gives, without fmt's allocation.
func (m Mode) appendOctal(dst []byte) []byte {
	var buf [modeMaxDigits]byte
	digits := strconv.AppendUint(buf[:0], uint64(m), 8)
	for n := len(digits); n < 6; n++ {
		dst = append(dst, '0')
	}
	return append(dst, digits...)
}

// TreeEntry is a single named child of a tree: a file (blob) or a subtree.
type TreeEntry struct {
	Name string // path component; no "/" permitted
	Mode Mode
	ID   ID // blob ID if Mode.IsFile, tree ID if Mode.IsDir
}

// IsDir reports whether the entry references a subtree.
func (e TreeEntry) IsDir() bool { return e.Mode.IsDir() }

// Tree is an ordered set of uniquely-named entries. Entries are kept sorted
// by name so that equal directory contents always encode (and hash)
// identically.
type Tree struct {
	entries []TreeEntry
}

// ErrDuplicateEntry reports an attempt to add a second entry with a name
// already present in the tree.
var ErrDuplicateEntry = errors.New("object: duplicate tree entry")

// NewTree creates a tree from entries, sorting them by name. It returns an
// error for invalid names, invalid modes or duplicate names.
func NewTree(entries []TreeEntry) (*Tree, error) {
	t := &Tree{entries: make([]TreeEntry, len(entries))}
	copy(t.entries, entries)
	sort.Slice(t.entries, func(i, j int) bool { return t.entries[i].Name < t.entries[j].Name })
	for i, e := range t.entries {
		if err := e.Validate(); err != nil {
			return nil, err
		}
		if i > 0 && t.entries[i-1].Name == e.Name {
			return nil, fmt.Errorf("%w: %q", ErrDuplicateEntry, e.Name)
		}
	}
	return t, nil
}

// NewTreeFromSorted creates a tree over entries that are already in name
// order and already valid — the entries of a stored tree, merged with new
// ones the caller checked with Validate. It takes ownership of the slice,
// and verifies only the order (which also rules out duplicates): the cost
// of rebuilding a directory is one pass, not a sort and a re-validation of
// names the base tree validated when it was built.
func NewTreeFromSorted(entries []TreeEntry) (*Tree, error) {
	for i := 1; i < len(entries); i++ {
		if entries[i-1].Name >= entries[i].Name {
			return nil, fmt.Errorf("%w or out of order: %q", ErrDuplicateEntry, entries[i].Name)
		}
	}
	return &Tree{entries: entries}, nil
}

// Validate checks the entry's name and mode.
func (e TreeEntry) Validate() error {
	if err := validateEntryName(e.Name); err != nil {
		return err
	}
	if !e.Mode.Valid() {
		return fmt.Errorf("object: entry %q: invalid mode %o", e.Name, uint32(e.Mode))
	}
	return nil
}

// EmptyTree returns a tree with no entries.
func EmptyTree() *Tree { return &Tree{} }

func validateEntryName(name string) error {
	if name == "" {
		return errors.New("object: empty tree entry name")
	}
	if name == "." || name == ".." {
		return fmt.Errorf("object: reserved tree entry name %q", name)
	}
	if strings.ContainsAny(name, "/\x00\n") {
		return fmt.Errorf("object: tree entry name %q contains forbidden character", name)
	}
	return nil
}

// Type reports TypeTree.
func (t *Tree) Type() Type { return TypeTree }

// ID returns the tree's content-derived identifier.
func (t *Tree) ID() ID { return Hash(t) }

// Len returns the number of entries.
func (t *Tree) Len() int { return len(t.entries) }

// Entries returns the entries in name order. The slice is shared; callers
// must not modify it.
func (t *Tree) Entries() []TreeEntry { return t.entries }

// Entry returns the entry with the given name, if present.
func (t *Tree) Entry(name string) (TreeEntry, bool) {
	i := sort.Search(len(t.entries), func(i int) bool { return t.entries[i].Name >= name })
	if i < len(t.entries) && t.entries[i].Name == name {
		return t.entries[i], true
	}
	return TreeEntry{}, false
}

// With returns a copy of the tree with entry e inserted, replacing any
// existing entry of the same name.
func (t *Tree) With(e TreeEntry) (*Tree, error) {
	out := make([]TreeEntry, 0, len(t.entries)+1)
	replaced := false
	for _, cur := range t.entries {
		if cur.Name == e.Name {
			out = append(out, e)
			replaced = true
			continue
		}
		out = append(out, cur)
	}
	if !replaced {
		out = append(out, e)
	}
	return NewTree(out)
}

// Without returns a copy of the tree with the named entry removed. Removing
// an absent name is a no-op.
func (t *Tree) Without(name string) (*Tree, error) {
	out := make([]TreeEntry, 0, len(t.entries))
	for _, cur := range t.entries {
		if cur.Name != name {
			out = append(out, cur)
		}
	}
	return NewTree(out)
}

// Canonical tree encoding: for each entry in name order,
// "<mode> <name>\x00" followed by the 32 raw ID bytes.
func (t *Tree) encode(dst []byte) []byte {
	// Size the payload up front (every legal mode is six digits), so a
	// tree of any width is one allocation.
	n := 0
	for _, e := range t.entries {
		n += 6 + 1 + len(e.Name) + 1 + IDSize
	}
	dst = slices.Grow(dst, n)
	for _, e := range t.entries {
		dst = e.Mode.appendOctal(dst)
		dst = append(dst, ' ')
		dst = append(dst, e.Name...)
		dst = append(dst, 0)
		dst = append(dst, e.ID[:]...)
	}
	return dst
}

func decodeTree(payload []byte) (*Tree, error) {
	var entries []TreeEntry
	rest := payload
	for len(rest) > 0 {
		sp := bytes.IndexByte(rest, ' ')
		if sp < 0 {
			return nil, errors.New("object: tree entry: missing mode separator")
		}
		mode, err := strconv.ParseUint(string(rest[:sp]), 8, 32)
		if err != nil {
			return nil, fmt.Errorf("object: tree entry: bad mode %q", rest[:sp])
		}
		rest = rest[sp+1:]
		nul := bytes.IndexByte(rest, 0)
		if nul < 0 {
			return nil, errors.New("object: tree entry: missing name terminator")
		}
		name := string(rest[:nul])
		rest = rest[nul+1:]
		if len(rest) < IDSize {
			return nil, errors.New("object: tree entry: truncated id")
		}
		var id ID
		copy(id[:], rest[:IDSize])
		rest = rest[IDSize:]
		entries = append(entries, TreeEntry{Name: name, Mode: Mode(mode), ID: id})
	}
	return NewTree(entries)
}
