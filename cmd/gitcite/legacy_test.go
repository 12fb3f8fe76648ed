package main

import (
	"bufio"
	"bytes"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// fixtureDir is a repository in the legacy loose layout, written by the
// last CLI whose init wrote loose objects (see its README.md). It is
// resolved when the package loads, since tests chdir into temporary
// working copies.
var fixtureDir = func() string {
	wd, _ := os.Getwd()
	return filepath.Join(wd, "testdata", "loose-v1")
}()

// copyFixture copies the loose-v1 working copy, .gitcite included, into
// dst, so a test can write to it without touching testdata.
func copyFixture(t *testing.T, dst string) {
	t.Helper()
	src := filepath.Join(fixtureDir, "repo")
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// looseFiles lists the loose tier under .gitcite/objects: "ab/cdef…" for
// each object file, "ab/" for an empty fanout directory.
func looseFiles(t *testing.T) []string {
	t.Helper()
	var out []string
	entries, err := os.ReadDir(".gitcite/objects")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() || len(e.Name()) != 2 {
			continue
		}
		files, err := os.ReadDir(filepath.Join(".gitcite/objects", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) == 0 {
			out = append(out, e.Name()+"/")
		}
		for _, f := range files {
			out = append(out, e.Name()+"/"+f.Name())
		}
	}
	return out
}

// runOut runs a subcommand and returns what it printed on stdout.
func runOut(t *testing.T, args ...string) string {
	t.Helper()
	out, err := captureRun(args)
	if err != nil {
		t.Fatalf("gitcite %s: %v", strings.Join(args, " "), err)
	}
	return out
}

// captureRun runs a subcommand with stdout redirected into a buffer.
func captureRun(args []string) (string, error) {
	r, w, err := os.Pipe()
	if err != nil {
		return "", err
	}
	stdout := os.Stdout
	os.Stdout = w
	var buf bytes.Buffer
	done := make(chan struct{})
	go func() {
		io.Copy(&buf, r)
		close(done)
	}()
	runErr := run(args)
	os.Stdout = stdout
	w.Close()
	<-done
	r.Close()
	return buf.String(), runErr
}

// listing reproduces listing.txt against the repository in the working
// directory: for each `== REV PATH` header of the golden listing, the
// header and then what `cite -rev REV -path PATH` prints, or
// "(no citation)" when it fails.
func listing(t *testing.T) string {
	t.Helper()
	golden, err := os.Open(filepath.Join(fixtureDir, "listing.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer golden.Close()
	var out strings.Builder
	sc := bufio.NewScanner(golden)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "== ")
		if !ok {
			continue
		}
		rev, path, _ := strings.Cut(rest, " ")
		out.WriteString(sc.Text() + "\n")
		cite, err := captureRun([]string{"cite", "-rev", rev, "-path", path})
		if err != nil {
			cite = "(no citation)\n"
		}
		out.WriteString(cite)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// TestLooseV1Fixture opens a copy of a repository written in the legacy
// loose layout and checks that every citation at every commit reads back
// byte for byte, that the next commit lands in a pack without adding a
// loose file, and that repack folds every loose object away without
// changing a citation.
func TestLooseV1Fixture(t *testing.T) {
	want, err := os.ReadFile(filepath.Join(fixtureDir, "listing.txt"))
	if err != nil {
		t.Fatal(err)
	}
	inTempRepo(t, func(dir string) {
		copyFixture(t, dir)
		loose := looseFiles(t)
		if len(loose) == 0 {
			t.Fatal("fixture holds no loose objects")
		}
		if got := listing(t); got != string(want) {
			t.Fatalf("listing differs from the one the writing binary printed:\n%s", got)
		}

		write(t, "NEWS.txt", "first commit under pack storage\n")
		mustRun(t, "commit", "-author", "chenli", "-m", "news")
		if after := looseFiles(t); !slices.Equal(after, loose) {
			t.Errorf("commit changed the loose tier: %d files before, %d after", len(loose), len(after))
		}
		packs, err := filepath.Glob(".gitcite/objects/pack/*.pack")
		if err != nil || len(packs) != 1 {
			t.Fatalf("%d pack files after the first commit (err=%v), want 1", len(packs), err)
		}
		if out := runOut(t, "cite", "-path", "/NEWS.txt"); !strings.Contains(out, "corecover") {
			t.Errorf("cite of the new file = %q", out)
		}

		mustRun(t, "repack")
		if left := looseFiles(t); len(left) != 0 {
			t.Errorf("%d loose objects remain after repack", len(left))
		}
		if got := listing(t); got != string(want) {
			t.Fatalf("listing changed by repack:\n%s", got)
		}
	})
}
