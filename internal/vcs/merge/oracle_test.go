package merge

import (
	"fmt"
	"sort"

	"github.com/gitcite/gitcite/internal/vcs"
	"github.com/gitcite/gitcite/internal/vcs/object"
	"github.com/gitcite/gitcite/internal/vcs/store"
)

// flattenTrees is the implementation Trees replaced — flatten all three
// trees to path maps, apply the per-file rules path by path, read every
// kept blob and build the result from scratch — kept as the reference the
// differential test holds Trees to.
func flattenTrees(s store.Store, base, ours, theirs object.ID, opts Options) (Result, error) {
	bf, err := flatten(s, base)
	if err != nil {
		return Result{}, err
	}
	of, err := flatten(s, ours)
	if err != nil {
		return Result{}, err
	}
	tf, err := flatten(s, theirs)
	if err != nil {
		return Result{}, err
	}

	paths := map[string]bool{}
	for p := range bf {
		paths[p] = true
	}
	for p := range of {
		paths[p] = true
	}
	for p := range tf {
		paths[p] = true
	}

	merged := map[string]vcs.FileContent{}
	var conflicts []Conflict
	var deleted []string

	keep := func(p string, f vcs.TreeFile) error {
		blob, err := store.GetBlob(s, f.BlobID)
		if err != nil {
			return err
		}
		merged[p] = vcs.FileContent{Data: blob.Data(), Mode: f.Mode}
		return nil
	}

	for _, p := range vcs.SortedPaths(paths) {
		b, inB := bf[p]
		o, inO := of[p]
		t, inT := tf[p]

		same := func(x vcs.TreeFile, inX bool, y vcs.TreeFile, inY bool) bool {
			if inX != inY {
				return false
			}
			if !inX {
				return true
			}
			return x.BlobID == y.BlobID && x.Mode == y.Mode
		}

		switch {
		case same(o, inO, t, inT): // both sides agree
			if inO {
				if err := keep(p, o); err != nil {
					return Result{}, err
				}
			} else if inB {
				deleted = append(deleted, p)
			}
		case same(o, inO, b, inB): // only theirs changed
			if inT {
				if err := keep(p, t); err != nil {
					return Result{}, err
				}
			} else {
				deleted = append(deleted, p)
			}
		case same(t, inT, b, inB): // only ours changed
			if inO {
				if err := keep(p, o); err != nil {
					return Result{}, err
				}
			} else {
				deleted = append(deleted, p)
			}
		default: // true conflict
			c := Conflict{Path: p}
			if inB {
				c.BaseID = b.BlobID
			}
			if inO {
				c.OursID = o.BlobID
			}
			if inT {
				c.TheirsID = t.BlobID
			}
			switch {
			case !inO || !inT:
				c.Kind = ConflictModifyDelete
			case !inB:
				c.Kind = ConflictBothAdded
			default:
				c.Kind = ConflictBothModified
			}
			conflicts = append(conflicts, c)

			res := ResolveOurs
			if opts.Resolver != nil {
				res = opts.Resolver(c)
			}
			switch res {
			case ResolveOurs:
				if inO {
					if err := keep(p, o); err != nil {
						return Result{}, err
					}
				} else {
					deleted = append(deleted, p)
				}
			case ResolveTheirs:
				if inT {
					if err := keep(p, t); err != nil {
						return Result{}, err
					}
				} else {
					deleted = append(deleted, p)
				}
			case ResolveConcat:
				data, err := concatConflict(s, c)
				if err != nil {
					return Result{}, err
				}
				mode := object.ModeFile
				if inO {
					mode = o.Mode
				} else if inT {
					mode = t.Mode
				}
				merged[p] = vcs.FileContent{Data: data, Mode: mode}
			default:
				return Result{}, fmt.Errorf("merge: unknown resolution %d for %q", res, p)
			}
		}
	}

	treeID, err := vcs.BuildTree(s, merged)
	if err != nil {
		return Result{}, err
	}
	sort.Strings(deleted)
	return Result{TreeID: treeID, Conflicts: conflicts, DeletedPaths: deleted}, nil
}

func flatten(s store.Store, treeID object.ID) (map[string]vcs.TreeFile, error) {
	out := map[string]vcs.TreeFile{}
	if treeID.IsZero() {
		return out, nil
	}
	files, err := vcs.FlattenTree(s, treeID)
	if err != nil {
		return nil, err
	}
	for _, f := range files {
		out[f.Path] = f
	}
	return out, nil
}
