// Command gitcite is the paper's "local executable tool": a citation-aware
// version-control CLI. State lives in a .gitcite directory next to the
// project files; the working directory itself is the worktree.
//
// Usage:
//
//	gitcite init -owner O -name N [-url U] [-license L]
//	gitcite commit -author NAME [-email E] -m MSG
//	gitcite log | branches | branch NAME | switch NAME
//	gitcite add-cite -path P -owner O -repo R [-url U] [-version V] [-authors "A,B"]
//	gitcite modify-cite -path P … | del-cite -path P
//	gitcite cite -path P [-rev R] [-format text|bibtex|cff|json]   (GenCite)
//	gitcite chain -path P [-rev R]                         (whole-path semantics)
//	gitcite citefile [-rev R]                              (print citation.cite as stored)
//	gitcite repack                                         (fold legacy loose objects, consolidate packs)
//	gitcite merge -from BRANCH -author NAME [-strategy ours|theirs|newest|three-way]
//	gitcite copy -src-dir DIR -src-path P -dst-path Q -author NAME  (CopyCite)
//	gitcite mv OLD NEW | rm PATH                           (then commit)
//	gitcite push|pull -server URL [-token T] -owner O -repo R -branch B
//	gitcite retro-enable -new-branch B | retro-check
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/gitcite/gitcite/internal/core"
	"github.com/gitcite/gitcite/internal/extension"
	"github.com/gitcite/gitcite/internal/format"
	"github.com/gitcite/gitcite/internal/gitcite"
	"github.com/gitcite/gitcite/internal/report"
	"github.com/gitcite/gitcite/internal/retro"
	"github.com/gitcite/gitcite/internal/vcs"
	"github.com/gitcite/gitcite/internal/vcs/object"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gitcite:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("missing subcommand (try: init, commit, cite, add-cite, merge, log)")
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "init":
		return cmdInit(rest)
	case "commit":
		return cmdCommit(rest)
	case "log":
		return cmdLog()
	case "branches":
		return cmdBranches()
	case "branch":
		return cmdBranch(rest)
	case "switch":
		return cmdSwitch(rest)
	case "add-cite", "modify-cite":
		return cmdEditCite(cmd, rest)
	case "del-cite":
		return cmdDelCite(rest)
	case "cite":
		return cmdCite(rest)
	case "chain":
		return cmdChain(rest)
	case "citefile":
		return cmdCiteFile(rest)
	case "merge":
		return cmdMerge(rest)
	case "copy":
		return cmdCopy(rest)
	case "mv":
		return cmdMove(rest)
	case "rm":
		return cmdRemove(rest)
	case "push", "pull":
		return cmdSync(cmd, rest)
	case "repack":
		return cmdRepack()
	case "credit":
		return cmdCredit()
	case "retro-enable":
		return cmdRetroEnable(rest)
	case "retro-check":
		return cmdRetroCheck()
	default:
		return fmt.Errorf("unknown subcommand %q", cmd)
	}
}

const stateDir = ".gitcite"

// openRepo opens the repository of the working directory.
func openRepo() (*gitcite.Repo, error) { return openRepoIn(".") }

// openRepoIn opens the repository whose state lives in dir/.gitcite. Every
// repository opens with pack storage; one written before every repository
// wrote packs keeps its loose objects readable until `gitcite repack` folds
// them in.
func openRepoIn(dir string) (*gitcite.Repo, error) {
	meta, err := loadMeta(dir)
	if err != nil {
		return nil, err
	}
	return gitcite.OpenPackedFileRepo(filepath.Join(dir, stateDir), meta)
}

// saveMeta writes .gitcite/meta. It records storage=pack, which this binary
// ignores, so that older binaries, which open a repository without that
// line loose-only, open it packed.
func saveMeta(m gitcite.Meta) error {
	content := fmt.Sprintf("owner=%s\nname=%s\nurl=%s\nlicense=%s\nstorage=pack\n", m.Owner, m.Name, m.URL, m.License)
	return os.WriteFile(filepath.Join(stateDir, "meta"), []byte(content), 0o644)
}

// loadMeta reads the metadata of the repository whose state lives in
// dir/.gitcite.
func loadMeta(dir string) (gitcite.Meta, error) {
	data, err := os.ReadFile(filepath.Join(dir, stateDir, "meta"))
	if err != nil {
		return gitcite.Meta{}, fmt.Errorf("not a gitcite repository (run 'gitcite init'): %w", err)
	}
	m := gitcite.Meta{}
	for _, line := range strings.Split(string(data), "\n") {
		key, val, ok := strings.Cut(line, "=")
		if !ok {
			continue
		}
		switch key {
		case "owner":
			m.Owner = val
		case "name":
			m.Name = val
		case "url":
			m.URL = val
		case "license":
			m.License = val
		}
	}
	return m, m.Validate()
}

// resolveRev maps an empty rev to HEAD and otherwise resolves a branch
// name, full commit hex, or unambiguous abbreviated commit-ID prefix (≥ 4
// hex chars) through the object store's ordered ID index.
func resolveRev(repo *gitcite.Repo, rev string) (object.ID, error) {
	if rev == "" {
		return repo.VCS.Head()
	}
	if id, err := object.ParseID(rev); err == nil {
		if _, err := repo.VCS.Commit(id); err != nil {
			return object.ID{}, fmt.Errorf("unknown commit %s", rev)
		}
		return id, nil
	}
	if id, err := repo.VCS.BranchTip(rev); err == nil {
		return id, nil
	}
	if len(rev) >= 4 {
		if id, err := repo.VCS.ResolveCommitPrefix(rev); err == nil {
			return id, nil
		} else if errors.Is(err, vcs.ErrAmbiguousPrefix) {
			return object.ID{}, err
		}
	}
	return object.ID{}, fmt.Errorf("unknown revision %q (want a branch, commit ID, or ≥4-char commit prefix)", rev)
}

func cmdInit(args []string) error {
	fs := flag.NewFlagSet("init", flag.ContinueOnError)
	owner := fs.String("owner", "", "repository owner (required)")
	name := fs.String("name", "", "repository name (required)")
	url := fs.String("url", "", "repository URL")
	license := fs.String("license", "", "license identifier")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m := gitcite.Meta{Owner: *owner, Name: *name, URL: *url, License: *license}
	if err := m.Validate(); err != nil {
		return err
	}
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		return err
	}
	if err := saveMeta(m); err != nil {
		return err
	}
	repo, err := gitcite.OpenPackedFileRepo(stateDir, m)
	if err != nil {
		return err
	}
	defer repo.Close()
	fmt.Printf("initialised citation-enabled repository %s/%s in %s\n", m.Owner, m.Name, stateDir)
	return nil
}

// cmdRepack folds a legacy loose repository's objects into pack storage and
// consolidates its packs: every loose object is absorbed into a single pack.
// The fold is the
// two-phase concurrent repack: other processes' readers of the same
// .gitcite keep working for its whole duration, and within this process
// the store is locked only for the final swap. A store already
// consolidated to one pack with nothing loose returns immediately without
// rewriting anything.
func cmdRepack() error {
	repo, err := openRepo()
	if err != nil {
		return err
	}
	defer repo.Close()
	// Record storage=pack BEFORE the destructive fold, for older binaries:
	// one that finds a legacy meta without it opens the repository
	// loose-only and would not see the folded objects.
	if err := saveMeta(repo.Meta); err != nil {
		return err
	}
	start := time.Now()
	folded, err := repo.VCS.Repack()
	if err != nil {
		return err
	}
	fmt.Printf("repacked in %s: %d loose objects folded into pack storage\n",
		time.Since(start).Round(time.Millisecond), folded)
	return nil
}

// loadWorktree checks out the current branch and overlays the files found
// in the working directory, so user edits are picked up; files deleted on
// disk disappear from the worktree.
func loadWorktree(repo *gitcite.Repo) (*gitcite.Worktree, string, error) {
	branch, err := repo.VCS.CurrentBranch()
	if err != nil {
		return nil, "", err
	}
	wt, err := repo.Checkout(branch)
	if err != nil {
		return nil, "", err
	}
	seen := map[string]bool{}
	err = walkDir(".", func(rel string, data []byte) error {
		p := "/" + rel
		seen[p] = true
		return wt.WriteFile(p, data)
	})
	if err != nil {
		return nil, "", err
	}
	for _, p := range wt.Paths() {
		if !seen[p] {
			if err := wt.RemoveFile(p); err != nil {
				return nil, "", err
			}
		}
	}
	return wt, branch, nil
}

func walkDir(root string, fn func(rel string, data []byte) error) error {
	entries, err := os.ReadDir(root)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if name == stateDir || strings.HasPrefix(name, ".") || name == "citation.cite" {
			continue
		}
		full := root + "/" + name
		if e.IsDir() {
			if err := walkDir(full, fn); err != nil {
				return err
			}
			continue
		}
		data, err := os.ReadFile(full)
		if err != nil {
			return err
		}
		rel := strings.TrimPrefix(full, "./")
		if err := fn(rel, data); err != nil {
			return err
		}
	}
	return nil
}

// materialize writes the committed worktree (files + citation.cite) back to
// the working directory.
func materialize(repo *gitcite.Repo, commit object.ID) error {
	treeID, err := repo.VCS.TreeOf(commit)
	if err != nil {
		return err
	}
	files, err := vcs.TreeToFileMap(repo.VCS.Objects, treeID)
	if err != nil {
		return err
	}
	for p, fc := range files {
		rel := strings.TrimPrefix(p, "/")
		if dir := dirOf(rel); dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
		}
		if err := os.WriteFile(rel, fc.Data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func dirOf(rel string) string {
	if i := strings.LastIndexByte(rel, '/'); i >= 0 {
		return rel[:i]
	}
	return ""
}

func cmdCommit(args []string) error {
	fs := flag.NewFlagSet("commit", flag.ContinueOnError)
	author := fs.String("author", "", "author name (required)")
	email := fs.String("email", "", "author email")
	msg := fs.String("m", "", "commit message (required)")
	similarity := fs.Float64("rename-similarity", 0.6, "content-similarity threshold for detecting renames of cited files (0 disables fuzzy matching)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *author == "" || *msg == "" {
		return fmt.Errorf("commit requires -author and -m")
	}
	repo, err := openRepo()
	if err != nil {
		return err
	}
	wt, branch, err := loadWorktree(repo)
	if err != nil {
		return err
	}
	// Detect moves made directly on disk so their citations follow the
	// files instead of being pruned.
	renames, err := wt.SyncRenames(gitcite.RenameDetection{MinSimilarity: *similarity})
	if err != nil {
		return err
	}
	for _, rn := range renames {
		fmt.Printf("detected rename: %s -> %s (citation rekeyed)\n", rn.OldPath, rn.NewPath)
	}
	id, err := wt.Commit(vcs.CommitOptions{
		Author:  vcs.Sig(*author, *email, time.Now()),
		Message: *msg,
	})
	if err != nil {
		return err
	}
	if err := materialize(repo, id); err != nil {
		return err
	}
	fmt.Printf("[%s %s] %s\n", branch, id.Short(), *msg)
	return nil
}

func cmdLog() error {
	repo, err := openRepo()
	if err != nil {
		return err
	}
	head, err := repo.VCS.Head()
	if err != nil {
		return err
	}
	return repo.VCS.Log(head, func(id object.ID, c *object.Commit) error {
		kind := ""
		if c.IsMerge() {
			kind = " (merge)"
		}
		fmt.Printf("%s %s  %s  %s%s\n", id.Short(),
			c.Committer.When.UTC().Format("2006-01-02 15:04"),
			c.Author.Name, c.Summary(), kind)
		return nil
	})
}

func cmdBranches() error {
	repo, err := openRepo()
	if err != nil {
		return err
	}
	branches, err := repo.VCS.Branches()
	if err != nil {
		return err
	}
	current, _ := repo.VCS.CurrentBranch()
	for _, b := range branches {
		marker := "  "
		if b == current {
			marker = "* "
		}
		fmt.Println(marker + b)
	}
	return nil
}

func cmdBranch(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: gitcite branch NAME")
	}
	repo, err := openRepo()
	if err != nil {
		return err
	}
	head, err := repo.VCS.Head()
	if err != nil {
		return err
	}
	if err := repo.VCS.CreateBranch(args[0], head); err != nil {
		return err
	}
	fmt.Printf("created branch %s at %s\n", args[0], head.Short())
	return nil
}

func cmdSwitch(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: gitcite switch BRANCH")
	}
	repo, err := openRepo()
	if err != nil {
		return err
	}
	if err := repo.VCS.Checkout(args[0]); err != nil {
		return err
	}
	if tip, err := repo.VCS.BranchTip(args[0]); err == nil {
		if err := materialize(repo, tip); err != nil {
			return err
		}
	}
	fmt.Printf("switched to branch %s\n", args[0])
	return nil
}

func citationFlags(fs *flag.FlagSet) func() core.Citation {
	owner := fs.String("owner", "", "citation owner")
	repoName := fs.String("repo", "", "cited repository name")
	url := fs.String("url", "", "citation URL")
	doi := fs.String("doi", "", "citation DOI")
	version := fs.String("version", "", "cited version")
	commitID := fs.String("commit", "", "cited commit id")
	license := fs.String("license", "", "license")
	authors := fs.String("authors", "", "comma-separated author list")
	note := fs.String("note", "", "free-form note")
	return func() core.Citation {
		c := core.Citation{
			Owner: *owner, RepoName: *repoName, URL: *url, DOI: *doi,
			Version: *version, CommitID: *commitID, License: *license, Note: *note,
		}
		if *authors != "" {
			for _, a := range strings.Split(*authors, ",") {
				c.AuthorList = append(c.AuthorList, strings.TrimSpace(a))
			}
		}
		return c
	}
}

func cmdEditCite(cmd string, args []string) error {
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	path := fs.String("path", "", "tree path (required)")
	author := fs.String("author", "gitcite", "commit author")
	email := fs.String("email", "", "commit author email")
	getCitation := citationFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *path == "" {
		return fmt.Errorf("%s requires -path", cmd)
	}
	repo, err := openRepo()
	if err != nil {
		return err
	}
	wt, branch, err := loadWorktree(repo)
	if err != nil {
		return err
	}
	cite := getCitation()
	if cmd == "add-cite" {
		err = wt.AddCite(*path, cite)
	} else {
		err = wt.ModifyCite(*path, cite)
	}
	if err != nil {
		return err
	}
	id, err := wt.Commit(vcs.CommitOptions{
		Author:  vcs.Sig(*author, *email, time.Now()),
		Message: fmt.Sprintf("%s %s (via GitCite)", cmd, *path),
	})
	if err != nil {
		return err
	}
	if err := materialize(repo, id); err != nil {
		return err
	}
	fmt.Printf("[%s %s] %s %s\n", branch, id.Short(), cmd, *path)
	return nil
}

func cmdDelCite(args []string) error {
	fs := flag.NewFlagSet("del-cite", flag.ContinueOnError)
	path := fs.String("path", "", "tree path (required)")
	author := fs.String("author", "gitcite", "commit author")
	email := fs.String("email", "", "commit author email")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *path == "" {
		return fmt.Errorf("del-cite requires -path")
	}
	repo, err := openRepo()
	if err != nil {
		return err
	}
	wt, branch, err := loadWorktree(repo)
	if err != nil {
		return err
	}
	if err := wt.DelCite(*path); err != nil {
		return err
	}
	id, err := wt.Commit(vcs.CommitOptions{
		Author:  vcs.Sig(*author, *email, time.Now()),
		Message: fmt.Sprintf("del-cite %s (via GitCite)", *path),
	})
	if err != nil {
		return err
	}
	if err := materialize(repo, id); err != nil {
		return err
	}
	fmt.Printf("[%s %s] del-cite %s\n", branch, id.Short(), *path)
	return nil
}

func cmdCite(args []string) error {
	fs := flag.NewFlagSet("cite", flag.ContinueOnError)
	path := fs.String("path", "/", "tree path")
	formatName := fs.String("format", "text", "output format: text, bibtex, cff, json")
	rev := fs.String("rev", "", "revision to cite: branch, commit ID, or ≥4-char commit prefix (default HEAD)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	f, err := format.Parse(*formatName)
	if err != nil {
		return err
	}
	repo, err := openRepo()
	if err != nil {
		return err
	}
	head, err := resolveRev(repo, *rev)
	if err != nil {
		return err
	}
	cite, from, err := repo.Generate(head, *path)
	if err != nil {
		return err
	}
	rendered, err := format.Render(cite, f)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "citation for %s (from %s):\n", *path, from)
	fmt.Print(rendered)
	return nil
}

func cmdChain(args []string) error {
	fs := flag.NewFlagSet("chain", flag.ContinueOnError)
	path := fs.String("path", "/", "tree path")
	rev := fs.String("rev", "", "revision: branch, commit ID, or ≥4-char commit prefix (default HEAD)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	repo, err := openRepo()
	if err != nil {
		return err
	}
	head, err := resolveRev(repo, *rev)
	if err != nil {
		return err
	}
	chain, err := repo.GenerateChain(head, *path)
	if err != nil {
		return err
	}
	fmt.Print(format.ChainText(chain))
	return nil
}

func cmdCiteFile(args []string) error {
	fs := flag.NewFlagSet("citefile", flag.ContinueOnError)
	rev := fs.String("rev", "", "revision: branch, commit ID, or ≥4-char commit prefix (default HEAD)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	repo, err := openRepo()
	if err != nil {
		return err
	}
	head, err := resolveRev(repo, *rev)
	if err != nil {
		return err
	}
	data, err := repo.CiteFileBytes(head)
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(data)
	return err
}

func cmdMerge(args []string) error {
	fs := flag.NewFlagSet("merge", flag.ContinueOnError)
	from := fs.String("from", "", "branch to merge (required)")
	author := fs.String("author", "gitcite", "merge commit author")
	email := fs.String("email", "", "author email")
	strategy := fs.String("strategy", "ours", "citation conflicts: ours, theirs, newest, three-way")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *from == "" {
		return fmt.Errorf("merge requires -from")
	}
	var strat core.Strategy
	switch *strategy {
	case "ours":
		strat = core.StrategyOurs
	case "theirs":
		strat = core.StrategyTheirs
	case "newest":
		strat = core.StrategyNewest
	case "three-way":
		strat = core.StrategyThreeWay
	default:
		return fmt.Errorf("unknown strategy %q", *strategy)
	}
	repo, err := openRepo()
	if err != nil {
		return err
	}
	branch, err := repo.VCS.CurrentBranch()
	if err != nil {
		return err
	}
	res, err := repo.MergeBranches(branch, *from, gitcite.MergeOptions{
		Citations: core.MergeOptions{
			Strategy: strat,
			Resolver: func(c core.MergeConflict) (core.Citation, error) { return c.Ours, nil },
		},
		Commit: vcs.CommitOptions{
			Author:  vcs.Sig(*author, *email, time.Now()),
			Message: fmt.Sprintf("Merge branch '%s' (MergeCite)", *from),
		},
	})
	if err != nil {
		return err
	}
	if err := materialize(repo, res.CommitID); err != nil {
		return err
	}
	switch {
	case res.FastForward:
		fmt.Printf("fast-forwarded %s to %s\n", branch, res.CommitID.Short())
	default:
		fmt.Printf("merged %s into %s: %s (%d file conflicts, %d citation conflicts, %d citations pruned)\n",
			*from, branch, res.CommitID.Short(), len(res.FileConflicts), len(res.CiteConflicts), len(res.PrunedCitations))
	}
	return nil
}

func cmdCopy(args []string) error {
	fs := flag.NewFlagSet("copy", flag.ContinueOnError)
	srcDir := fs.String("src-dir", "", "source repository directory (required)")
	srcPath := fs.String("src-path", "/", "path within the source version")
	dstPath := fs.String("dst-path", "", "destination path here (required)")
	author := fs.String("author", "gitcite", "commit author")
	email := fs.String("email", "", "author email")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *srcDir == "" || *dstPath == "" {
		return fmt.Errorf("copy requires -src-dir and -dst-path")
	}
	src, err := openRepoIn(*srcDir)
	if err != nil {
		return fmt.Errorf("source: %w", err)
	}
	defer src.Close()
	srcTip, err := src.VCS.Head()
	if err != nil {
		return err
	}
	repo, err := openRepo()
	if err != nil {
		return err
	}
	wt, branch, err := loadWorktree(repo)
	if err != nil {
		return err
	}
	if err := wt.CopyCite(src, srcTip, *srcPath, *dstPath); err != nil {
		return err
	}
	id, err := wt.Commit(vcs.CommitOptions{
		Author:  vcs.Sig(*author, *email, time.Now()),
		Message: fmt.Sprintf("CopyCite %s:%s -> %s", src.Meta.Name, *srcPath, *dstPath),
	})
	if err != nil {
		return err
	}
	if err := materialize(repo, id); err != nil {
		return err
	}
	fmt.Printf("[%s %s] CopyCite %s -> %s\n", branch, id.Short(), *srcPath, *dstPath)
	return nil
}

func cmdMove(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: gitcite mv OLD NEW")
	}
	repo, err := openRepo()
	if err != nil {
		return err
	}
	wt, branch, err := loadWorktree(repo)
	if err != nil {
		return err
	}
	if err := wt.Move(args[0], args[1]); err != nil {
		return err
	}
	id, err := wt.Commit(vcs.CommitOptions{
		Author:  vcs.Sig("gitcite", "", time.Now()),
		Message: fmt.Sprintf("mv %s %s (citations rekeyed)", args[0], args[1]),
	})
	if err != nil {
		return err
	}
	// Reflect the move on disk.
	old := strings.TrimPrefix(args[0], "/")
	if err := os.RemoveAll(old); err != nil {
		return err
	}
	if err := materialize(repo, id); err != nil {
		return err
	}
	fmt.Printf("[%s %s] moved %s -> %s\n", branch, id.Short(), args[0], args[1])
	return nil
}

func cmdRemove(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: gitcite rm PATH")
	}
	repo, err := openRepo()
	if err != nil {
		return err
	}
	wt, branch, err := loadWorktree(repo)
	if err != nil {
		return err
	}
	if err := wt.RemoveFile(args[0]); err != nil {
		return err
	}
	id, err := wt.Commit(vcs.CommitOptions{
		Author:  vcs.Sig("gitcite", "", time.Now()),
		Message: fmt.Sprintf("rm %s", args[0]),
	})
	if err != nil {
		return err
	}
	if err := os.Remove(strings.TrimPrefix(args[0], "/")); err != nil && !os.IsNotExist(err) {
		return err
	}
	fmt.Printf("[%s %s] removed %s\n", branch, id.Short(), args[0])
	return nil
}

func cmdSync(cmd string, args []string) error {
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	server := fs.String("server", "", "hosting server base URL (required)")
	tok := fs.String("token", "", "API token")
	owner := fs.String("owner", "", "remote repository owner (required)")
	repoName := fs.String("repo", "", "remote repository name (required)")
	branch := fs.String("branch", "main", "branch")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *server == "" || *owner == "" || *repoName == "" {
		return fmt.Errorf("%s requires -server, -owner and -repo", cmd)
	}
	repo, err := openRepo()
	if err != nil {
		return err
	}
	client := extension.New(*server, *tok)
	if cmd == "push" {
		// Sync negotiates with the remote branch tips first, so only the
		// object delta travels.
		n, err := client.Sync(repo, *owner, *repoName, *branch)
		if err != nil {
			return err
		}
		fmt.Printf("pushed %s (%d new objects)\n", *branch, n)
		return nil
	}
	tip, n, err := client.Fetch(repo, *owner, *repoName, *branch, *branch)
	if err != nil {
		return err
	}
	if err := materialize(repo, tip); err != nil {
		return err
	}
	fmt.Printf("pulled %s at %s (%d new objects)\n", *branch, tip.Short(), n)
	return nil
}

func cmdCredit() error {
	repo, err := openRepo()
	if err != nil {
		return err
	}
	head, err := repo.VCS.Head()
	if err != nil {
		return err
	}
	rep, err := report.Build(repo, head)
	if err != nil {
		return err
	}
	rep.Fprint(os.Stdout)
	return nil
}

func cmdRetroEnable(args []string) error {
	fs := flag.NewFlagSet("retro-enable", flag.ContinueOnError)
	newBranch := fs.String("new-branch", "", "branch name for the citation-enabled history (required)")
	maxDepth := fs.Int("max-depth", 0, "bound directory citation depth (0 = unbounded)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *newBranch == "" {
		return fmt.Errorf("retro-enable requires -new-branch")
	}
	repo, err := openRepo()
	if err != nil {
		return err
	}
	branch, err := repo.VCS.CurrentBranch()
	if err != nil {
		return err
	}
	report, err := retro.Enable(repo, branch, *newBranch, retro.Options{MaxDepth: *maxDepth})
	if err != nil {
		return err
	}
	fmt.Printf("rewrote %d versions onto %s (tip %s), %d citation entries synthesised\n",
		len(report.Rewritten), *newBranch, report.NewTip.Short(), report.EntriesAdded)
	return nil
}

func cmdRetroCheck() error {
	repo, err := openRepo()
	if err != nil {
		return err
	}
	branch, err := repo.VCS.CurrentBranch()
	if err != nil {
		return err
	}
	issues, err := retro.Check(repo, branch)
	if err != nil {
		return err
	}
	if len(issues) == 0 {
		fmt.Println("history is citation-consistent")
		return nil
	}
	for _, i := range issues {
		fmt.Println(i.String())
	}
	return fmt.Errorf("%d issue(s) found", len(issues))
}
