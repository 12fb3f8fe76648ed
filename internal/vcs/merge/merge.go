// Package merge implements three-way tree merging over the vcs substrate:
// given a merge base and two branch tips, it produces a merged tree and a
// list of file-level conflicts. GitCite layers citation-function merging
// (MergeCite) on top of the file results computed here.
package merge

import (
	"bytes"
	"fmt"
	"sort"

	"github.com/gitcite/gitcite/internal/vcs"
	"github.com/gitcite/gitcite/internal/vcs/object"
	"github.com/gitcite/gitcite/internal/vcs/store"
)

// ConflictKind classifies a file-level merge conflict.
type ConflictKind uint8

// Conflict kinds.
const (
	// ConflictBothModified: both sides changed the same file differently.
	ConflictBothModified ConflictKind = iota + 1
	// ConflictModifyDelete: one side modified a file the other deleted.
	ConflictModifyDelete
	// ConflictBothAdded: both sides added the same path with different content.
	ConflictBothAdded
)

// String names the conflict kind.
func (k ConflictKind) String() string {
	switch k {
	case ConflictBothModified:
		return "both-modified"
	case ConflictModifyDelete:
		return "modify-delete"
	case ConflictBothAdded:
		return "both-added"
	default:
		return "unknown"
	}
}

// Conflict describes one path the merge could not resolve automatically.
type Conflict struct {
	Path     string
	Kind     ConflictKind
	BaseID   object.ID // zero if absent in base
	OursID   object.ID // zero if deleted on our side
	TheirsID object.ID // zero if deleted on their side
}

// Resolution tells Trees how to settle a conflict.
type Resolution uint8

// Resolutions.
const (
	// ResolveOurs keeps our side's version (absence included).
	ResolveOurs Resolution = iota + 1
	// ResolveTheirs keeps their side's version (absence included).
	ResolveTheirs
	// ResolveConcat keeps both contents with conflict markers, like Git's
	// textual conflict output.
	ResolveConcat
)

// Options configures a merge.
type Options struct {
	// Resolver settles conflicts; nil leaves them unresolved (the merge
	// returns the conflicts and resolves those paths to our side so the
	// result is still a valid tree).
	Resolver func(Conflict) Resolution
}

// Result is the outcome of a tree merge.
type Result struct {
	TreeID object.ID
	// Conflicts are the paths that required resolution (even when a
	// resolver settled them).
	Conflicts []Conflict
	// DeletedPaths lists files present in at least one input that are
	// absent from the merged tree; MergeCite prunes citation entries for
	// these (paper §3: "delete any entries that correspond to files that
	// were deleted by the Git merge").
	DeletedPaths []string
}

// Trees merges ours and theirs against base (any of which may be the zero
// ID, meaning an empty tree) and returns the merged tree plus conflicts.
//
// Per-file rules, with base version b, ours o, theirs t:
//
//	o == t                  → take either
//	o == b (only they moved) → take t
//	t == b (only we moved)   → take o
//	otherwise                → conflict
//
// "Version" includes absence, so add/add, modify/delete and delete/delete
// cases all reduce to these rules.
//
// The rules are applied to tree entries before files: a name under which
// all three trees hold the same entry is settled without looking inside
// it, and the walk descends only where the sides differ. The result is
// ours plus a delta (vcs.BuildTreeDelta), so subtrees neither the merge nor
// a resolution touches are reused verbatim and no blob is read except to
// concatenate a conflict. Cost follows what the three versions disagree on,
// not the size of the trees.
func Trees(s store.Store, base, ours, theirs object.ID, opts Options) (Result, error) {
	m := &merger{s: s, edits: map[string]vcs.TreeEdit{}}
	if err := m.walk("", base, ours, theirs); err != nil {
		return Result{}, err
	}
	// The walk visits "/a/b" before "/a.txt"; conflicts are reported, and
	// the resolver asked, in path order.
	sort.Slice(m.conflicts, func(i, j int) bool { return m.conflicts[i].Path < m.conflicts[j].Path })
	res := Result{}
	for _, c := range m.conflicts {
		res.Conflicts = append(res.Conflicts, c.Conflict)
		choice := ResolveOurs
		if opts.Resolver != nil {
			choice = opts.Resolver(c.Conflict)
		}
		switch choice {
		case ResolveOurs:
			m.take(c.Path, c.ours, c.ours)
		case ResolveTheirs:
			m.take(c.Path, c.ours, c.theirs)
		case ResolveConcat:
			data, err := concatConflict(s, c.Conflict)
			if err != nil {
				return Result{}, err
			}
			mode := c.ours.Mode
			if mode == 0 {
				mode = c.theirs.Mode
			}
			m.edits[c.Path] = vcs.TreeEdit{Data: data, Mode: mode}
		default:
			return Result{}, fmt.Errorf("merge: unknown resolution %d for %q", choice, c.Path)
		}
	}
	var err error
	if res.TreeID, err = vcs.BuildTreeDelta(s, ours, m.edits, m.removed); err != nil {
		return Result{}, err
	}
	sort.Strings(m.deleted)
	res.DeletedPaths = m.deleted
	return res, nil
}

// merger accumulates the merge as a delta against ours.
type merger struct {
	s         store.Store
	edits     map[string]vcs.TreeEdit
	removed   []string // paths ours has and the merge drops
	deleted   []string // Result.DeletedPaths, unsorted
	conflicts []pendingConflict
}

// pendingConflict is a conflict awaiting its resolution, with each side's
// file as a nameless tree entry (zero: the side has no file there).
type pendingConflict struct {
	Conflict
	ours, theirs object.TreeEntry
}

// take settles path on the file version v (absence included), given that
// ours holds o there.
func (m *merger) take(path string, o, v object.TreeEntry) {
	switch {
	case v.Mode == 0:
		m.deleted = append(m.deleted, path)
		if o.Mode != 0 {
			m.removed = append(m.removed, path)
		}
	case v != o:
		m.edits[path] = vcs.TreeEdit{BlobID: v.ID, Mode: v.Mode}
	}
}

// walk merges one directory: the entries of the three trees (zero: none)
// are visited together in name order. What a side holds under a name is a
// file, a directory or nothing; files and directories are merged apart, as
// the per-file rules see no directories (a file on one side and a directory
// on another then clash when the tree is built, as they always did).
func (m *merger) walk(dir string, b, o, t object.ID) error {
	var lists [3][]object.TreeEntry
	for i, id := range [3]object.ID{b, o, t} {
		if !id.IsZero() {
			tree, err := store.GetTree(m.s, id)
			if err != nil {
				return err
			}
			lists[i] = tree.Entries()
		}
	}
	for {
		name := ""
		for _, l := range lists {
			if len(l) > 0 && (name == "" || l[0].Name < name) {
				name = l[0].Name
			}
		}
		if name == "" {
			return nil
		}
		var file [3]object.TreeEntry // nameless; zero: no file under name
		var sub [3]object.ID         // zero: no directory under name
		for i, l := range lists {
			if len(l) == 0 || l[0].Name != name {
				continue
			}
			if lists[i] = l[1:]; l[0].IsDir() {
				sub[i] = l[0].ID
			} else {
				file[i] = object.TreeEntry{Mode: l[0].Mode, ID: l[0].ID}
			}
		}
		path := dir + "/" + name
		// Descend where the sides differ; where they agree, only to list
		// what both deleted from a base directory.
		if sub[1] != sub[2] || (sub[0] != sub[1] && !sub[0].IsZero()) {
			if err := m.walk(path, sub[0], sub[1], sub[2]); err != nil {
				return err
			}
		}
		switch fb, fo, ft := file[0], file[1], file[2]; {
		case fo == ft: // both sides agree
			if fo != fb {
				m.take(path, fo, fo)
			}
		case fo == fb: // only theirs changed
			m.take(path, fo, ft)
		case ft == fb: // only ours changed
			m.take(path, fo, fo)
		default:
			c := Conflict{Path: path, Kind: ConflictBothModified, BaseID: fb.ID, OursID: fo.ID, TheirsID: ft.ID}
			switch {
			case fo.Mode == 0 || ft.Mode == 0:
				c.Kind = ConflictModifyDelete
			case fb.Mode == 0:
				c.Kind = ConflictBothAdded
			}
			m.conflicts = append(m.conflicts, pendingConflict{c, fo, ft})
		}
	}
}

func concatConflict(s store.Store, c Conflict) ([]byte, error) {
	read := func(id object.ID) ([]byte, error) {
		if id.IsZero() {
			return nil, nil
		}
		b, err := store.GetBlob(s, id)
		if err != nil {
			return nil, err
		}
		return b.Data(), nil
	}
	ours, err := read(c.OursID)
	if err != nil {
		return nil, err
	}
	theirs, err := read(c.TheirsID)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	buf.WriteString("<<<<<<< ours\n")
	buf.Write(ours)
	if len(ours) > 0 && ours[len(ours)-1] != '\n' {
		buf.WriteByte('\n')
	}
	buf.WriteString("=======\n")
	buf.Write(theirs)
	if len(theirs) > 0 && theirs[len(theirs)-1] != '\n' {
		buf.WriteByte('\n')
	}
	buf.WriteString(">>>>>>> theirs\n")
	return buf.Bytes(), nil
}
