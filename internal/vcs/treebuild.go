package vcs

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"github.com/gitcite/gitcite/internal/vcs/object"
	"github.com/gitcite/gitcite/internal/vcs/store"
)

// FileContent describes one file when building a tree from a flat path map.
type FileContent struct {
	Data []byte
	Mode object.Mode // zero value means ModeFile
}

// File is a convenience constructor for a regular file's content.
func File(data string) FileContent { return FileContent{Data: []byte(data)} }

// BuildTree writes blobs and nested trees for a flat map of clean paths to
// file contents, returning the root tree ID. Intermediate directories are
// implied by the paths. An empty map produces the empty tree.
//
// BuildTree is the from-scratch special case of BuildTreeDelta: every path
// is an edit against an empty base.
func BuildTree(s store.Store, files map[string]FileContent) (object.ID, error) {
	edits := make(map[string]TreeEdit, len(files))
	for p, fc := range files {
		edits[p] = TreeEdit{Data: fc.Data, Mode: fc.Mode}
	}
	return BuildTreeDelta(s, object.ZeroID, edits, nil)
}

// TreeEdit describes the new state of one created or modified file for
// BuildTreeDelta. Either Data carries fresh content to be stored as a new
// blob, or BlobID references a blob already in the store (a lazily-held
// worktree file or a moved file), in which case no blob is re-encoded or
// re-hashed. A zero Mode means ModeFile.
type TreeEdit struct {
	Data   []byte
	BlobID object.ID
	Mode   object.Mode
}

// BuildTreeDelta builds a new tree by applying a set of file edits and
// removals to the base tree, returning the new root tree ID. Work is
// proportional to the delta, not the repository: subtrees no edit or
// removal touches are never loaded, re-encoded, re-hashed or re-Put —
// their existing IDs are reused verbatim — and only the directories on
// dirty paths are rebuilt. All newly created blobs and trees are written
// through the store's batch API in one call.
//
// A zero base is the empty tree, so BuildTreeDelta(s, ZeroID, edits, nil)
// is a from-scratch build. Removing a path absent from the base is a
// no-op; removing a path that names a directory in the base removes that
// entire subtree; directories left empty by removals are pruned, matching
// the flat-map form (which cannot express empty directories). The result
// is therefore bit-identical to a from-scratch BuildTree of the post-edit
// file map.
func BuildTreeDelta(s store.Store, base object.ID, edits map[string]TreeEdit, removed []string) (object.ID, error) {
	type deltaNode struct {
		edits    map[string]TreeEdit
		removes  map[string]bool
		children map[string]*deltaNode
	}
	newNode := func() *deltaNode {
		return &deltaNode{}
	}
	root := newNode()
	// descend walks/creates the trie node for a path's parent directory and
	// returns it with the leaf name.
	descend := func(clean string) (*deltaNode, string) {
		parts := SplitPath(clean)
		cur := root
		for _, part := range parts[:len(parts)-1] {
			if cur.children == nil {
				cur.children = map[string]*deltaNode{}
			}
			next, ok := cur.children[part]
			if !ok {
				next = newNode()
				cur.children[part] = next
			}
			cur = next
		}
		return cur, parts[len(parts)-1]
	}

	for p, ed := range edits {
		clean, err := CleanPath(p)
		if err != nil {
			return object.ZeroID, err
		}
		if clean == "/" {
			return object.ZeroID, fmt.Errorf("%w: cannot store file at the root path", ErrBadPath)
		}
		if ed.Mode.IsDir() {
			return object.ZeroID, fmt.Errorf("%w: %q: edits describe files, not directories", ErrBadPath, clean)
		}
		node, name := descend(clean)
		if node.edits == nil {
			node.edits = map[string]TreeEdit{}
		}
		node.edits[name] = ed
	}
	for _, p := range removed {
		clean, err := CleanPath(p)
		if err != nil {
			return object.ZeroID, err
		}
		if clean == "/" {
			return object.ZeroID, fmt.Errorf("%w: cannot remove the root", ErrBadPath)
		}
		node, name := descend(clean)
		if node.removes == nil {
			node.removes = map[string]bool{}
		}
		node.removes[name] = true
	}

	// pending accumulates every newly created object (children before
	// parents) in canonical form, for a single raw batch Put once the
	// whole delta is hashed. Each object is encoded and hashed exactly
	// once — here — and never again by the store; the decoded form rides
	// along so a caching store can serve the trees built here to the next
	// commit without reading them back.
	var pending []store.Encoded
	hash := func(o object.Object) object.ID {
		enc := object.Encode(o)
		id := object.HashBytes(enc)
		pending = append(pending, store.Encoded{ID: id, Enc: enc, Obj: o})
		return id
	}

	// build rebuilds one dirty directory by merging the base tree's entries
	// (sorted, and validated when that tree was built) with the directory's
	// own sorted delta in one pass: base entries the delta does not name are
	// carried over untouched, and only names the delta introduces are
	// validated. It returns the directory's new tree ID, or ZeroID when the
	// directory ends up empty (pruned by the caller).
	var build func(n *deltaNode, baseID object.ID) (object.ID, error)
	build = func(n *deltaNode, baseID object.ID) (object.ID, error) {
		var base []object.TreeEntry
		if !baseID.IsZero() {
			baseTree, err := store.GetTree(s, baseID)
			if err != nil {
				return object.ZeroID, err
			}
			base = baseTree.Entries()
		}
		names := make([]string, 0, len(n.removes)+len(n.children)+len(n.edits))
		for name := range n.removes {
			names = append(names, name)
		}
		for name := range n.children {
			names = append(names, name)
		}
		for name := range n.edits {
			names = append(names, name)
		}
		sort.Strings(names)

		list := make([]object.TreeEntry, 0, len(base)+len(names))
		for i, name := range names {
			if i > 0 && names[i-1] == name {
				continue // named by more than one of the three maps
			}
			for len(base) > 0 && base[0].Name < name {
				list, base = append(list, base[0]), base[1:]
			}
			// cur is the entry under this name as the delta's steps see it:
			// removal first (of an absent name: a no-op), then the rebuilt
			// subdirectory, then the file edit.
			var cur object.TreeEntry
			have := false
			if len(base) > 0 && base[0].Name == name {
				cur, have, base = base[0], !n.removes[name], base[1:]
			}
			if child := n.children[name]; child != nil {
				childBase := object.ZeroID
				if have && cur.IsDir() {
					childBase = cur.ID
				}
				subID, err := build(child, childBase)
				switch {
				case err != nil:
					return object.ZeroID, err
				case subID.IsZero():
					// The subtree emptied out; prune it — but never a base
					// file that merely shared the name with a no-op removal.
					have = have && !cur.IsDir()
				case have && !cur.IsDir():
					return object.ZeroID, fmt.Errorf("%w: %q is both a file and a directory", ErrBadPath, name)
				default:
					cur, have = object.TreeEntry{Name: name, Mode: object.ModeDir, ID: subID}, true
				}
			}
			if ed, ok := n.edits[name]; ok {
				if have && cur.IsDir() {
					return object.ZeroID, fmt.Errorf("%w: %q is both a file and a directory", ErrBadPath, name)
				}
				mode := ed.Mode
				if mode == 0 {
					mode = object.ModeFile
				}
				blobID := ed.BlobID
				if blobID.IsZero() {
					blobID = hash(object.NewBlob(ed.Data))
				}
				cur, have = object.TreeEntry{Name: name, Mode: mode, ID: blobID}, true
			}
			if have {
				if err := cur.Validate(); err != nil {
					return object.ZeroID, err
				}
				list = append(list, cur)
			}
		}
		list = append(list, base...)
		if len(list) == 0 {
			return object.ZeroID, nil
		}
		tree, err := object.NewTreeFromSorted(list)
		if err != nil {
			return object.ZeroID, err
		}
		enc := object.Encode(tree)
		id := object.HashBytes(enc)
		if id == baseID {
			return id, nil // rebuilt identically; nothing new to store
		}
		pending = append(pending, store.Encoded{ID: id, Enc: enc, Obj: tree})
		return id, nil
	}

	rootID, err := build(root, base)
	if err != nil {
		return object.ZeroID, err
	}
	if rootID.IsZero() {
		// Everything was removed (or there was nothing): the root is the
		// one directory allowed to be empty.
		rootID = hash(object.EmptyTree())
	}
	if err := s.PutManyEncoded(pending); err != nil {
		return object.ZeroID, err
	}
	return rootID, nil
}

// TreeFile describes one file found while flattening a stored tree.
type TreeFile struct {
	Path   string // clean rooted path
	Mode   object.Mode
	BlobID object.ID
}

// FlattenTree lists every file under the given tree as clean rooted paths in
// sorted order.
func FlattenTree(s store.Store, treeID object.ID) ([]TreeFile, error) {
	var out []TreeFile
	err := WalkTree(s, treeID, func(p string, e object.TreeEntry) error {
		if !e.IsDir() {
			out = append(out, TreeFile{Path: p, Mode: e.Mode, BlobID: e.ID})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// WalkTree visits every entry (files and directories) under treeID in
// depth-first name order, calling fn with the entry's clean rooted path. The
// root itself is not visited (it has no entry).
func WalkTree(s store.Store, treeID object.ID, fn func(path string, e object.TreeEntry) error) error {
	return walkTree(s, treeID, "/", fn)
}

func walkTree(s store.Store, treeID object.ID, prefix string, fn func(string, object.TreeEntry) error) error {
	tree, err := store.GetTree(s, treeID)
	if err != nil {
		return err
	}
	for _, e := range tree.Entries() {
		var p string
		if prefix == "/" {
			p = "/" + e.Name
		} else {
			p = prefix + "/" + e.Name
		}
		if err := fn(p, e); err != nil {
			return err
		}
		if e.IsDir() {
			if err := walkTree(s, e.ID, p, fn); err != nil {
				return err
			}
		}
	}
	return nil
}

// ErrPathNotFound reports a path the tree does not hold: a missing entry, or
// one below a file. It is the only error LookupPath returns about the tree's
// content; any other error is the store failing to read a tree object.
var ErrPathNotFound = errors.New("vcs: path not found")

// LookupPath resolves a clean rooted path within a tree. For the root path
// it returns a synthetic directory entry holding the root tree's ID.
func LookupPath(s store.Store, treeID object.ID, cleanPath string) (object.TreeEntry, error) {
	if cleanPath == "/" {
		return object.TreeEntry{Name: "", Mode: object.ModeDir, ID: treeID}, nil
	}
	parts := SplitPath(cleanPath)
	cur := treeID
	for i, part := range parts {
		tree, err := store.GetTree(s, cur)
		if err != nil {
			return object.TreeEntry{}, err
		}
		e, ok := tree.Entry(part)
		if !ok {
			return object.TreeEntry{}, fmt.Errorf("%w: %q (missing %q)", ErrPathNotFound, cleanPath, strings.Join(parts[:i+1], "/"))
		}
		if i == len(parts)-1 {
			return e, nil
		}
		if !e.IsDir() {
			return object.TreeEntry{}, fmt.Errorf("%w: %q traverses file %q", ErrPathNotFound, cleanPath, strings.Join(parts[:i+1], "/"))
		}
		cur = e.ID
	}
	return object.TreeEntry{}, fmt.Errorf("%w: %q", ErrPathNotFound, cleanPath)
}

// PathExists reports whether a clean rooted path names a file or directory
// within the tree.
func PathExists(s store.Store, treeID object.ID, cleanPath string) bool {
	_, err := LookupPath(s, treeID, cleanPath)
	return err == nil
}

// ReadFile returns the contents of the file at a clean rooted path.
func ReadFile(s store.Store, treeID object.ID, cleanPath string) ([]byte, error) {
	e, err := LookupPath(s, treeID, cleanPath)
	if err != nil {
		return nil, err
	}
	if e.IsDir() {
		return nil, fmt.Errorf("vcs: %q is a directory", cleanPath)
	}
	blob, err := store.GetBlob(s, e.ID)
	if err != nil {
		return nil, err
	}
	return blob.Data(), nil
}

// TreeToFileMap converts a stored tree back into the flat path map form
// accepted by BuildTree. BuildTree(TreeToFileMap(t)) reproduces t's ID
// (for trees without empty directories, which BuildTree cannot express).
func TreeToFileMap(s store.Store, treeID object.ID) (map[string]FileContent, error) {
	files, err := FlattenTree(s, treeID)
	if err != nil {
		return nil, err
	}
	out := make(map[string]FileContent, len(files))
	for _, f := range files {
		blob, err := store.GetBlob(s, f.BlobID)
		if err != nil {
			return nil, err
		}
		out[f.Path] = FileContent{Data: blob.Data(), Mode: f.Mode}
	}
	return out, nil
}

// InsertSubtree returns a new root tree in which the subtree (or file)
// identified by srcEntry is grafted at dstPath, creating intermediate
// directories as needed and replacing anything previously at dstPath.
func InsertSubtree(s store.Store, rootTree object.ID, dstPath string, srcEntry object.TreeEntry) (object.ID, error) {
	clean, err := CleanPath(dstPath)
	if err != nil {
		return object.ZeroID, err
	}
	if clean == "/" {
		if !srcEntry.IsDir() {
			return object.ZeroID, fmt.Errorf("%w: cannot graft a file at the root", ErrBadPath)
		}
		return srcEntry.ID, nil
	}
	return graft(s, rootTree, SplitPath(clean), srcEntry)
}

func graft(s store.Store, treeID object.ID, parts []string, srcEntry object.TreeEntry) (object.ID, error) {
	var tree *object.Tree
	var err error
	if treeID.IsZero() {
		tree = object.EmptyTree()
	} else {
		tree, err = store.GetTree(s, treeID)
		if err != nil {
			return object.ZeroID, err
		}
	}
	name := parts[0]
	var newEntry object.TreeEntry
	if len(parts) == 1 {
		newEntry = object.TreeEntry{Name: name, Mode: srcEntry.Mode, ID: srcEntry.ID}
	} else {
		childID := object.ZeroID
		if e, ok := tree.Entry(name); ok {
			if !e.IsDir() {
				return object.ZeroID, fmt.Errorf("vcs: graft path traverses file %q", name)
			}
			childID = e.ID
		}
		subID, err := graft(s, childID, parts[1:], srcEntry)
		if err != nil {
			return object.ZeroID, err
		}
		newEntry = object.TreeEntry{Name: name, Mode: object.ModeDir, ID: subID}
	}
	updated, err := tree.With(newEntry)
	if err != nil {
		return object.ZeroID, err
	}
	return s.Put(updated)
}

// RemovePath returns a new root tree with the entry at the clean path
// removed; empty intermediate directories are pruned. Removing the root is
// an error.
func RemovePath(s store.Store, rootTree object.ID, cleanPath string) (object.ID, error) {
	if cleanPath == "/" {
		return object.ZeroID, fmt.Errorf("%w: cannot remove the root", ErrBadPath)
	}
	return prune(s, rootTree, SplitPath(cleanPath))
}

func prune(s store.Store, treeID object.ID, parts []string) (object.ID, error) {
	tree, err := store.GetTree(s, treeID)
	if err != nil {
		return object.ZeroID, err
	}
	name := parts[0]
	e, ok := tree.Entry(name)
	if !ok {
		return object.ZeroID, fmt.Errorf("vcs: remove: path component %q not found", name)
	}
	var updated *object.Tree
	if len(parts) == 1 {
		updated, err = tree.Without(name)
		if err != nil {
			return object.ZeroID, err
		}
	} else {
		if !e.IsDir() {
			return object.ZeroID, fmt.Errorf("vcs: remove: path traverses file %q", name)
		}
		subID, err := prune(s, e.ID, parts[1:])
		if err != nil {
			return object.ZeroID, err
		}
		sub, err := store.GetTree(s, subID)
		if err != nil {
			return object.ZeroID, err
		}
		if sub.Len() == 0 {
			updated, err = tree.Without(name)
		} else {
			updated, err = tree.With(object.TreeEntry{Name: name, Mode: object.ModeDir, ID: subID})
		}
		if err != nil {
			return object.ZeroID, err
		}
	}
	return s.Put(updated)
}
