package vcs

import (
	"path"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestCleanPath(t *testing.T) {
	cases := []struct {
		in, want string
	}{
		{"/", "/"},
		{"//", "/"},
		{"/a", "/a"},
		{"a", "/a"},
		{"a/b/", "/a/b"},
		{"/a/./b", "/a/b"},
		{"/a/b/../c", "/a/c"},
		{"/a//b", "/a/b"},
		{".", "/"},
	}
	for _, c := range cases {
		got, err := CleanPath(c.in)
		if err != nil {
			t.Errorf("CleanPath(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("CleanPath(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", "/..", "/../x", "a/../../b"} {
		if got, err := CleanPath(bad); err == nil {
			t.Errorf("CleanPath(%q) = %q, want error", bad, got)
		}
	}
}

func TestSplitJoinPath(t *testing.T) {
	if got := SplitPath("/"); got != nil {
		t.Errorf("SplitPath(/) = %v", got)
	}
	if got := SplitPath("/a/b"); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("SplitPath(/a/b) = %v", got)
	}
	if got := JoinPath(); got != "/" {
		t.Errorf("JoinPath() = %q", got)
	}
	if got := JoinPath("a", "b"); got != "/a/b" {
		t.Errorf("JoinPath(a,b) = %q", got)
	}
}

func TestParentBase(t *testing.T) {
	cases := []struct{ in, parent, base string }{
		{"/", "/", ""},
		{"/a", "/", "a"},
		{"/a/b/c", "/a/b", "c"},
	}
	for _, c := range cases {
		if got := ParentPath(c.in); got != c.parent {
			t.Errorf("ParentPath(%q) = %q, want %q", c.in, got, c.parent)
		}
		if got := BaseName(c.in); got != c.base {
			t.Errorf("BaseName(%q) = %q, want %q", c.in, got, c.base)
		}
	}
}

// TestParentPathMatchesPathDir pins the slicing ParentPath to path.Dir, its
// reference, on every clean path of a generated set: the root, depth 1,
// deep paths, long names, dotted names and every ancestor of each.
func TestParentPathMatchesPathDir(t *testing.T) {
	seeds := []string{"/", "/a", "/.x", "/a.b/c..d", "/" + strings.Repeat("n", 300)}
	deep := ""
	for i := 0; i < 256; i++ {
		deep += "/d" + strings.Repeat("x", i%7)
	}
	seeds = append(seeds, deep, deep+"/"+strings.Repeat("long", 100)+".txt")
	for _, seed := range seeds {
		for p := seed; ; {
			if !IsCleanPath(p) {
				t.Fatalf("generated path %q is not clean", p)
			}
			got := ParentPath(p)
			if want := path.Dir(p); got != want {
				t.Fatalf("ParentPath(%q) = %q, path.Dir = %q", p, got, want)
			}
			if p == "/" {
				break
			}
			p = got
		}
	}
}

func TestIsAncestorPath(t *testing.T) {
	cases := []struct {
		anc, p string
		want   bool
	}{
		{"/", "/", true},
		{"/", "/a/b", true},
		{"/a", "/a", true},
		{"/a", "/a/b", true},
		{"/a", "/ab", false},
		{"/a/b", "/a", false},
		{"/x", "/a", false},
	}
	for _, c := range cases {
		if got := IsAncestorPath(c.anc, c.p); got != c.want {
			t.Errorf("IsAncestorPath(%q, %q) = %v, want %v", c.anc, c.p, got, c.want)
		}
	}
}

func TestRebasePath(t *testing.T) {
	cases := []struct{ p, src, dst, want string }{
		{"/a/b/f", "/a/b", "/x", "/x/f"},
		{"/a/b", "/a/b", "/x", "/x"},
		{"/a/b/c/d", "/a", "/z", "/z/b/c/d"},
		{"/f", "/", "/sub", "/sub/f"},
		{"/a/b", "/a", "/", "/b"},
		{"/", "/", "/dst", "/dst"},
	}
	for _, c := range cases {
		got, err := RebasePath(c.p, c.src, c.dst)
		if err != nil {
			t.Errorf("RebasePath(%q,%q,%q): %v", c.p, c.src, c.dst, err)
			continue
		}
		if got != c.want {
			t.Errorf("RebasePath(%q,%q,%q) = %q, want %q", c.p, c.src, c.dst, got, c.want)
		}
	}
	if _, err := RebasePath("/other/f", "/a", "/x"); err == nil {
		t.Error("RebasePath outside src succeeded")
	}
}

// quick property: CleanPath is idempotent and produces rooted paths.
func TestQuickCleanPathIdempotent(t *testing.T) {
	f := func(parts []string) bool {
		var sb strings.Builder
		for _, p := range parts {
			sb.WriteString("/")
			sb.WriteString(strings.Map(func(r rune) rune {
				if r == 0 || r == '\n' {
					return 'x'
				}
				return r
			}, p))
		}
		in := sb.String()
		if in == "" {
			in = "/"
		}
		c1, err := CleanPath(in)
		if err != nil {
			return true // invalid input is allowed to fail
		}
		c2, err := CleanPath(c1)
		return err == nil && c1 == c2 && strings.HasPrefix(c1, "/")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// quick property: RebasePath(p, src, dst) then RebasePath(back) is identity.
func TestQuickRebaseRoundTrip(t *testing.T) {
	paths := []string{"/a", "/a/b", "/a/b/c", "/a/b/c/d"}
	for _, p := range paths {
		moved, err := RebasePath(p, "/a", "/z/q")
		if err != nil {
			t.Fatal(err)
		}
		back, err := RebasePath(moved, "/z/q", "/a")
		if err != nil {
			t.Fatal(err)
		}
		if back != p {
			t.Errorf("round trip %q -> %q -> %q", p, moved, back)
		}
	}
}
