package main

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/gitcite/gitcite/internal/hosting"
)

// inTempRepo runs fn inside a fresh temp directory.
func inTempRepo(t *testing.T, fn func(dir string)) {
	t.Helper()
	dir := t.TempDir()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(old) })
	fn(dir)
}

func mustRun(t *testing.T, args ...string) {
	t.Helper()
	if err := run(args); err != nil {
		t.Fatalf("gitcite %s: %v", strings.Join(args, " "), err)
	}
}

func write(t *testing.T, rel, data string) {
	t.Helper()
	if dir := filepath.Dir(rel); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(rel, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCLILifecycle(t *testing.T) {
	inTempRepo(t, func(string) {
		mustRun(t, "init", "-owner", "alice", "-name", "demo", "-url", "https://x/demo")
		write(t, "main.go", "package main\n")
		write(t, "lib/code.go", "package lib\n")
		mustRun(t, "commit", "-author", "alice", "-m", "initial")
		mustRun(t, "add-cite", "-path", "/lib", "-owner", "bob", "-repo", "blib", "-url", "https://x/blib", "-version", "1")
		mustRun(t, "cite", "-path", "/lib/code.go")
		mustRun(t, "cite", "-path", "/lib", "-format", "bibtex")
		mustRun(t, "chain", "-path", "/lib/code.go")
		mustRun(t, "citefile")
		mustRun(t, "log")
		mustRun(t, "branches")
		mustRun(t, "modify-cite", "-path", "/lib", "-owner", "bob", "-repo", "blib", "-url", "https://x/blib", "-version", "2")
		mustRun(t, "del-cite", "-path", "/lib")
		mustRun(t, "retro-check")

		// citation.cite materialised on disk and managed by the system.
		if _, err := os.Stat("citation.cite"); err != nil {
			t.Errorf("citation.cite not materialised: %v", err)
		}
	})
}

// TestCLIPackStorageLifecycle drives the lifecycle against a freshly
// initialised repository: the first commit lands in a pack file and leaves
// no loose fanout directory, reads resolve through the pack's ordered
// index, and repack consolidates.
func TestCLIPackStorageLifecycle(t *testing.T) {
	inTempRepo(t, func(string) {
		mustRun(t, "init", "-owner", "alice", "-name", "packed")
		write(t, "main.go", "package main\n")
		write(t, "lib/code.go", "package lib\n")
		mustRun(t, "commit", "-author", "alice", "-m", "initial")
		if packs, err := filepath.Glob(".gitcite/objects/pack/*.pack"); err != nil || len(packs) == 0 {
			t.Fatalf("no pack files after the first commit (err=%v)", err)
		}
		if loose := looseFiles(t); len(loose) != 0 {
			t.Fatalf("first commit wrote to the loose tier: %v", loose)
		}
		mustRun(t, "add-cite", "-path", "/lib", "-owner", "bob", "-repo", "blib", "-url", "https://x/blib", "-version", "1")
		mustRun(t, "commit", "-author", "alice", "-m", "cite lib")
		mustRun(t, "cite", "-path", "/lib/code.go")
		mustRun(t, "citefile")
		mustRun(t, "repack")
		mustRun(t, "cite", "-path", "/lib/code.go")
		packs, err := filepath.Glob(".gitcite/objects/pack/*.pack")
		if err != nil || len(packs) != 1 {
			t.Fatalf("%d pack files after repack (err=%v), want 1", len(packs), err)
		}
		entries, err := os.ReadDir(".gitcite/objects")
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.Name() != "pack" {
				t.Errorf(".gitcite/objects holds %s; want only pack/", e.Name())
			}
		}
	})
}

// TestCLIRepackMigratesLooseRepo repacks a copy of the loose-v1 fixture, a
// repository written in the legacy loose layout, and checks that the meta
// file then records storage=pack for older binaries and that later
// commands still commit and read history.
func TestCLIRepackMigratesLooseRepo(t *testing.T) {
	inTempRepo(t, func(dir string) {
		copyFixture(t, dir)
		mustRun(t, "repack")
		meta, err := os.ReadFile(".gitcite/meta")
		if err != nil || !strings.Contains(string(meta), "storage=pack") {
			t.Fatalf("meta not migrated to pack storage: %q, %v", meta, err)
		}
		write(t, "b.txt", "two\n")
		mustRun(t, "commit", "-author", "alice", "-m", "second")
		mustRun(t, "cite", "-path", "/b.txt")
		mustRun(t, "log")
	})
}

// TestCLICiteByRev covers -rev resolution: branch, full commit ID, and an
// abbreviated prefix, all resolved through the ordered ID index.
func TestCLICiteByRev(t *testing.T) {
	inTempRepo(t, func(string) {
		mustRun(t, "init", "-owner", "alice", "-name", "revs")
		write(t, "a.txt", "one\n")
		mustRun(t, "commit", "-author", "alice", "-m", "first")
		repo, err := openRepo()
		if err != nil {
			t.Fatal(err)
		}
		first, err := repo.VCS.Head()
		if err != nil {
			t.Fatal(err)
		}
		write(t, "a.txt", "two\n")
		mustRun(t, "commit", "-author", "alice", "-m", "second")

		mustRun(t, "cite", "-path", "/a.txt", "-rev", "main")
		mustRun(t, "cite", "-path", "/a.txt", "-rev", first.String())
		mustRun(t, "cite", "-path", "/a.txt", "-rev", first.String()[:8])
		mustRun(t, "chain", "-path", "/a.txt", "-rev", first.String()[:8])
		mustRun(t, "citefile", "-rev", first.String()[:8])
		if err := run([]string{"cite", "-path", "/a.txt", "-rev", "ffffffff"}); err == nil {
			t.Error("unknown revision prefix did not error")
		}
		if err := run([]string{"cite", "-path", "/a.txt", "-rev", first.String()[:3]}); err == nil {
			t.Error("3-char prefix did not error")
		}
	})
}

func TestCLIBranchAndMerge(t *testing.T) {
	inTempRepo(t, func(string) {
		mustRun(t, "init", "-owner", "alice", "-name", "demo")
		write(t, "base.txt", "base\n")
		mustRun(t, "commit", "-author", "alice", "-m", "base")
		mustRun(t, "branch", "side")
		mustRun(t, "switch", "side")
		write(t, "side.txt", "side work\n")
		mustRun(t, "commit", "-author", "bob", "-m", "side work")
		mustRun(t, "add-cite", "-path", "/side.txt", "-owner", "bob", "-repo", "sidework", "-url", "https://s", "-version", "1")
		mustRun(t, "switch", "main")
		write(t, "main.txt", "main work\n")
		// side.txt exists on disk from the side checkout; remove so main's
		// tree matches its branch.
		if err := os.Remove("side.txt"); err != nil {
			t.Fatal(err)
		}
		mustRun(t, "commit", "-author", "alice", "-m", "main work")
		mustRun(t, "merge", "-from", "side", "-author", "alice")
		// After the merge both files and the side citation are present.
		if _, err := os.Stat("side.txt"); err != nil {
			t.Errorf("merged file missing: %v", err)
		}
		mustRun(t, "cite", "-path", "/side.txt")
	})
}

func TestCLIMoveAndRemove(t *testing.T) {
	inTempRepo(t, func(string) {
		mustRun(t, "init", "-owner", "alice", "-name", "demo")
		write(t, "old/file.txt", "content\n")
		mustRun(t, "commit", "-author", "alice", "-m", "initial")
		mustRun(t, "add-cite", "-path", "/old", "-owner", "o", "-repo", "r", "-url", "u", "-version", "1")
		mustRun(t, "mv", "/old", "/renamed")
		if _, err := os.Stat("renamed/file.txt"); err != nil {
			t.Errorf("moved file missing on disk: %v", err)
		}
		mustRun(t, "cite", "-path", "/renamed/file.txt")
		mustRun(t, "rm", "/renamed/file.txt")
		if _, err := os.Stat("renamed/file.txt"); !os.IsNotExist(err) {
			t.Errorf("removed file still on disk: %v", err)
		}
	})
}

func TestCLIPushPull(t *testing.T) {
	platform := hosting.NewPlatform()
	ts := httptest.NewServer(hosting.NewServer(platform))
	defer ts.Close()
	user, err := platform.CreateUser(context.Background(), "alice")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := platform.CreateRepo(context.Background(), user.Token, "demo", "https://x/demo", ""); err != nil {
		t.Fatal(err)
	}
	inTempRepo(t, func(string) {
		mustRun(t, "init", "-owner", "alice", "-name", "demo", "-url", "https://x/demo")
		write(t, "f.txt", "pushed content\n")
		mustRun(t, "commit", "-author", "alice", "-m", "to push")
		mustRun(t, "push", "-server", ts.URL, "-token", user.Token, "-owner", "alice", "-repo", "demo", "-branch", "main")
	})
	// Pull into a second working copy.
	inTempRepo(t, func(string) {
		mustRun(t, "init", "-owner", "alice", "-name", "demo", "-url", "https://x/demo")
		mustRun(t, "pull", "-server", ts.URL, "-owner", "alice", "-repo", "demo", "-branch", "main")
		data, err := os.ReadFile("f.txt")
		if err != nil || string(data) != "pushed content\n" {
			t.Errorf("pulled file = %q, %v", data, err)
		}
	})
}

func TestCLIRetroEnable(t *testing.T) {
	inTempRepo(t, func(string) {
		mustRun(t, "init", "-owner", "alice", "-name", "demo")
		write(t, "a.txt", "a\n")
		mustRun(t, "commit", "-author", "alice", "-m", "one")
		write(t, "b/c.txt", "c\n")
		mustRun(t, "commit", "-author", "bob", "-m", "two")
		mustRun(t, "retro-enable", "-new-branch", "cited")
		mustRun(t, "switch", "cited")
		mustRun(t, "retro-check")
	})
}

func TestCLIErrors(t *testing.T) {
	inTempRepo(t, func(string) {
		if err := run(nil); err == nil {
			t.Error("no args accepted")
		}
		if err := run([]string{"bogus"}); err == nil {
			t.Error("bogus subcommand accepted")
		}
		if err := run([]string{"commit", "-author", "a", "-m", "x"}); err == nil {
			t.Error("commit outside a repository accepted")
		}
		if err := run([]string{"init", "-owner", "only"}); err == nil {
			t.Error("init without -name accepted")
		}
		mustRun(t, "init", "-owner", "alice", "-name", "demo")
		if err := run([]string{"commit", "-m", "missing author"}); err == nil {
			t.Error("commit without author accepted")
		}
		if err := run([]string{"cite", "-path", "/x"}); err == nil {
			t.Error("cite on empty repo accepted")
		}
		write(t, "f.txt", "x")
		mustRun(t, "commit", "-author", "a", "-m", "c")
		if err := run([]string{"add-cite", "-path", "/ghost", "-owner", "o", "-repo", "r", "-url", "u", "-version", "1"}); err == nil {
			t.Error("add-cite on missing path accepted")
		}
		if err := run([]string{"cite", "-path", "/f.txt", "-format", "endnote-xml"}); err == nil {
			t.Error("unknown format accepted")
		}
		if err := run([]string{"merge", "-from", "nonexistent", "-author", "a"}); err == nil {
			t.Error("merge from missing branch accepted")
		}
	})
}

// TestCLICopyBetweenRepos imports a cited library with copy -src-dir from
// three kinds of source: a freshly initialised repository, one that has
// been repacked, and a copy of the loose-v1 fixture. Each source opens
// through the same path as the working repository, whatever its layout.
func TestCLICopyBetweenRepos(t *testing.T) {
	for _, source := range []string{"init", "repacked", "loose-v1"} {
		t.Run(source, func(t *testing.T) {
			base := t.TempDir()
			srcDir := filepath.Join(base, "src")
			dstDir := filepath.Join(base, "dst")
			if err := os.MkdirAll(srcDir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.MkdirAll(dstDir, 0o755); err != nil {
				t.Fatal(err)
			}
			old, _ := os.Getwd()
			t.Cleanup(func() { _ = os.Chdir(old) })

			// Source repository with a cited library under /lib.
			if err := os.Chdir(srcDir); err != nil {
				t.Fatal(err)
			}
			if source == "loose-v1" {
				copyFixture(t, srcDir)
			} else {
				mustRun(t, "init", "-owner", "chenli", "-name", "corecover", "-url", "https://x/corecover")
				write(t, "lib/algo.py", "algorithm\n")
				mustRun(t, "commit", "-author", "chenli", "-m", "algorithm")
				mustRun(t, "add-cite", "-path", "/lib", "-owner", "bob", "-repo", "blib", "-url", "https://x/blib", "-version", "1")
				if source == "repacked" {
					mustRun(t, "repack")
				}
			}

			// Destination imports it via CopyCite.
			if err := os.Chdir(dstDir); err != nil {
				t.Fatal(err)
			}
			mustRun(t, "init", "-owner", "yinjun", "-name", "demo", "-url", "https://x/demo")
			write(t, "main.py", "main\n")
			mustRun(t, "commit", "-author", "yinjun", "-m", "initial")
			mustRun(t, "copy", "-src-dir", srcDir, "-src-path", "/lib", "-dst-path", "/CoreCover", "-author", "yinjun")
			if _, err := os.Stat("CoreCover/algo.py"); err != nil {
				t.Errorf("copied file missing on disk: %v", err)
			}
			if out := runOut(t, "cite", "-path", "/CoreCover/algo.py"); !strings.Contains(out, "blib") {
				t.Errorf("copied citation = %q, want the source's blib citation", out)
			}
		})
	}
}
