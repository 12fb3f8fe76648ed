// Package vcs implements the version-control substrate GitCite runs on: a
// content-addressed repository of blobs, trees and commits with branches, a
// commit DAG, merge-base computation, tree construction from path maps, and
// history traversal. It plays the role Git plays in the paper.
package vcs

import (
	"errors"
	"fmt"
	"path"
	"sort"
	"strings"
)

// ErrBadPath reports an invalid repository path.
var ErrBadPath = errors.New("vcs: invalid path")

// CleanPath canonicalises a repository path to the rooted, slash-separated
// form used throughout: "/" for the root, "/dir/file" otherwise (no trailing
// slash, no ".." escapes, no empty components).
func CleanPath(p string) (string, error) {
	if p == "" {
		return "", fmt.Errorf("%w: empty", ErrBadPath)
	}
	if IsCleanPath(p) {
		return p, nil
	}
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	// path.Clean clamps ".." at the root, silently forgiving escapes; detect
	// them first so "/../x" is an error rather than "/x".
	depth := 0
	for _, part := range strings.Split(strings.Trim(p, "/"), "/") {
		switch part {
		case "", ".":
		case "..":
			depth--
			if depth < 0 {
				return "", fmt.Errorf("%w: %q escapes the root", ErrBadPath, p)
			}
		default:
			depth++
		}
	}
	cleaned := path.Clean(p)
	if cleaned == "/" {
		return "/", nil
	}
	return cleaned, nil
}

// IsCleanPath reports whether p is already in the canonical form CleanPath
// produces: "/" or a "/"-rooted path with no trailing slash and no empty,
// "." or ".." components. It performs no allocations, which keeps CleanPath
// allocation-free on the hot resolution path where inputs are usually
// already clean.
func IsCleanPath(p string) bool {
	if p == "/" {
		return true
	}
	if len(p) < 2 || p[0] != '/' || p[len(p)-1] == '/' {
		return false
	}
	start := 1
	for i := 1; i <= len(p); i++ {
		if i == len(p) || p[i] == '/' {
			seg := p[start:i]
			if seg == "" || seg == "." || seg == ".." {
				return false
			}
			start = i + 1
		}
	}
	return true
}

// MustCleanPath is CleanPath that panics on error; for tests and literals.
func MustCleanPath(p string) string {
	c, err := CleanPath(p)
	if err != nil {
		panic(err)
	}
	return c
}

// SplitPath breaks a clean path into its components; the root yields nil.
func SplitPath(clean string) []string {
	if clean == "/" {
		return nil
	}
	return strings.Split(strings.TrimPrefix(clean, "/"), "/")
}

// JoinPath assembles components into a clean rooted path.
func JoinPath(parts ...string) string {
	if len(parts) == 0 {
		return "/"
	}
	return "/" + strings.Join(parts, "/")
}

// ParentPath returns the parent of a clean path ("/" is its own parent). It
// slices at the last separator, scanning only the last component, where
// path.Dir would re-clean the whole path at every level of an ancestor walk.
func ParentPath(clean string) string {
	if i := strings.LastIndexByte(clean, '/'); i > 0 {
		return clean[:i]
	}
	return "/"
}

// BaseName returns the final component of a clean path ("" for the root).
func BaseName(clean string) string {
	if clean == "/" {
		return ""
	}
	return path.Base(clean)
}

// IsAncestorPath reports whether anc is an ancestor of (or equal to) p,
// where both are clean rooted paths.
func IsAncestorPath(anc, p string) bool {
	if anc == "/" {
		return true
	}
	return p == anc || strings.HasPrefix(p, anc+"/")
}

// RebasePath re-roots p (which must be under src) onto dst. For example
// RebasePath("/a/b/f", "/a/b", "/x") = "/x/f".
func RebasePath(p, src, dst string) (string, error) {
	if !IsAncestorPath(src, p) {
		return "", fmt.Errorf("%w: %q is not under %q", ErrBadPath, p, src)
	}
	var rel string
	if src == "/" {
		rel = strings.TrimPrefix(p, "/")
	} else {
		rel = strings.TrimPrefix(strings.TrimPrefix(p, src), "/")
	}
	if rel == "" {
		return dst, nil
	}
	if dst == "/" {
		return "/" + rel, nil
	}
	return dst + "/" + rel, nil
}

// SortedPaths returns the keys of a path-keyed map in lexicographic order.
// Lexicographic order on clean paths visits parents before children.
func SortedPaths[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
