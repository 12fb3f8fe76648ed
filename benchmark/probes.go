package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"github.com/gitcite/gitcite"
	"github.com/gitcite/gitcite/internal/citefile"
	"github.com/gitcite/gitcite/internal/core"
	"github.com/gitcite/gitcite/internal/hosting"
	"github.com/gitcite/gitcite/internal/vcs/object"
	"github.com/gitcite/gitcite/internal/vcs/store"
)

// probeTarget is a workload's own inputs as the probes need them: an open
// handle on its main repository, the paths its clients ask about, and — for
// the hosted workloads — the platform that serves it.
type probeTarget struct {
	repo    *gitcite.Repository
	release func()
	tip     gitcite.CommitID
	paths   []string
	dir     string // the repository's directory on disk
	meta    gitcite.Meta
	// source holds the same history somewhere the write probes may fork it
	// from without touching the served copy (the client-side mirror, or the
	// local tool's own repository).
	source *gitcite.Repository

	platform    *gitcite.Platform
	owner, name string
	others      []string // every hosted repository, when there are more than the LRU holds
}

func (h *hosted) hostedProbe(name string, mirror *gitcite.Repository, paths []string) (*probeTarget, error) {
	repo, release, err := h.sut.platform.AcquireRepo(context.Background(), h.owner, name)
	if err != nil {
		return nil, err
	}
	tip, err := mirror.VCS.BranchTip("main")
	if err != nil {
		release()
		return nil, err
	}
	return &probeTarget{
		repo: repo, release: release, tip: tip, paths: paths,
		dir: filepath.Join(h.e.dir, h.owner, name), meta: repo.Meta, source: mirror,
		platform: h.sut.platform, owner: h.owner, name: name,
	}, nil
}

// probeReps is how often a cheap probe repeats; codec-sized ones repeat
// codecReps times and expensive ones (a fork, a cold open) coldReps times.
const (
	probeReps = 2000
	codecReps = 50
	coldReps  = 8
)

// copyTree copies a directory tree, so a probe can open a repository cold
// without a second handle ever touching the served directory (opening a pack
// store folds and deletes the live writer's index journal).
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		in, err := os.Open(p)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(filepath.Join(dst, rel))
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// prober accumulates probe results by metric name and remembers the first
// failure, after which it skips the remaining probes.
type prober struct {
	m   map[string]float64
	err error
}

// time records the mean duration of f over n calls under name, in units of
// unitNS nanoseconds (1 for _ns metrics, 1e3 for _us).
func (p *prober) time(name string, unitNS float64, n int, f func(i int) error) {
	if p.err != nil {
		return
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := f(i); err != nil {
			p.err = fmt.Errorf("probe %s: %w", name, err)
			return
		}
	}
	p.m[name] = float64(time.Since(t0)) / float64(n) / unitNS
}

// runProbes times the public functions of each layer below the HTTP surface
// on the workload's own inputs, and returns per-layer metrics by name.
// Everything here runs against the untraced system.
func runProbes(t *probeTarget, scratch string) (map[string]float64, error) {
	p := &prober{m: map[string]float64{}}
	const ns, us = 1.0, 1e3
	n := len(t.paths)
	path := func(i int) string { return t.paths[i%n] }

	fn, err := t.repo.ResolvedFunctionAt(t.tip)
	if err != nil {
		return nil, err
	}
	raw, err := t.repo.CiteFileBytes(t.tip)
	if err != nil {
		return nil, err
	}
	tree, err := t.repo.TreeAt(t.tip)
	if err != nil {
		return nil, err
	}
	keys := make([]*core.PathKey, n)
	for i, path := range t.paths {
		if keys[i], err = t.repo.Paths().Intern(path); err != nil {
			return nil, err
		}
	}
	resolved := make([]core.Citation, min(n, 64))
	for i := range resolved {
		if resolved[i], _, err = t.repo.Generate(t.tip, path(i)); err != nil {
			return nil, err
		}
	}
	entry := func(i int) core.Citation { return resolved[i%len(resolved)] }
	domain := fn.ActiveDomain() // sorted by path: "/" first
	isDir := map[string]bool{}
	for _, pc := range domain {
		isDir[pc.Path] = tree.IsDir(pc.Path)
	}
	conflict := domain[len(domain)-1]             // any entry but the root
	subtree := domain[min(1, len(domain)-1)].Path // the shallowest cited directory
	prefix := t.tip.String()[:12]

	// ---- core: resolution on the version's shared function ----
	p.time("core.resolve_ns", ns, probeReps, func(i int) error {
		_, _, err := fn.Resolve(path(i))
		return err
	})
	p.time("core.resolve_key_ns", ns, probeReps, func(i int) error {
		_, _, err := fn.ResolveKey(keys[i%n])
		return err
	})
	p.time("core.resolve_chain_ns", ns, probeReps, func(i int) error {
		_, err := fn.ResolveChain(path(i))
		return err
	})

	// ---- citefile: the workload's own citation.cite ----
	p.m["citefile.bytes"] = float64(len(raw))
	fresh := make([]*core.Function, codecReps)
	p.time("citefile.decode_us", us, codecReps, func(i int) (err error) {
		fresh[i], err = citefile.Decode(raw)
		return err
	})
	// The first resolution on a freshly decoded function builds its index.
	p.time("core.resolve_first_ns", ns, codecReps, func(i int) error {
		_, _, err := fresh[i].Resolve(path(i))
		return err
	})
	p.time("citefile.encode_us", us, codecReps, func(int) error {
		_, err := citefile.Encode(fn, func(p string) bool { return isDir[p] })
		return err
	})
	p.time("citefile.encode_entry_ns", ns, probeReps, func(i int) error {
		_, err := citefile.EncodeEntry(entry(i))
		return err
	})

	// ---- format ----
	for name, f := range map[string]gitcite.Format{
		"format.bibtex_ns": gitcite.FormatBibTeX, "format.cff_ns": gitcite.FormatCFF, "format.ris_ns": gitcite.FormatRIS,
	} {
		p.time(name, ns, probeReps, func(i int) error {
			_, err := gitcite.Render(entry(i), f)
			return err
		})
	}

	// ---- core: the citation halves of MergeCite and CopyCite ----
	p.time("core.merge_us", us, codecReps, func(i int) error {
		ours, theirs := fn.Clone(), fn.Clone()
		changed := conflict.Citation.Clone()
		changed.Version = fmt.Sprintf("probe-%d", i)
		if err := theirs.Modify(conflict.Path, changed); err != nil {
			return err
		}
		changed.Note = "ours"
		if err := ours.Modify(conflict.Path, changed); err != nil {
			return err
		}
		res, err := core.Merge(ours, theirs, core.AnyTree(), core.MergeOptions{Strategy: core.StrategyTheirs, Base: fn})
		if err == nil && len(res.Conflicts) != 1 {
			err = fmt.Errorf("%d conflicts, want 1", len(res.Conflicts))
		}
		return err
	})
	p.time("core.migrate_subtree_us", us, codecReps, func(int) error {
		_, err := fn.Clone().MigrateSubtree(fn, subtree, "/probe/copy", core.AnyTree(), core.CopyOptions{Overwrite: true})
		return err
	})

	// ---- vcs, store and gitcite, warm ----
	p.time("vcs.commit_get_us", us, probeReps, func(int) error {
		_, err := t.repo.VCS.Commit(t.tip)
		return err
	})
	p.time("vcs.resolve_prefix_us", us, probeReps/10, func(int) error {
		id, err := t.repo.VCS.ResolveCommitPrefix(prefix)
		if err == nil && id != t.tip {
			err = fmt.Errorf("prefix %s resolved to %s", prefix, id.Short())
		}
		return err
	})
	p.time("store.prefix_search_us", us, probeReps/10, func(int) error {
		_, err := store.IDsByPrefix(t.repo.VCS.Objects, prefix, 0)
		return err
	})
	p.time("gitcite.generate_us", us, probeReps, func(i int) error {
		_, _, err := t.repo.Generate(t.tip, path(i))
		return err
	})
	p.time("gitcite.function_at_warm_us", us, codecReps, func(int) error {
		_, err := t.repo.FunctionAt(t.tip)
		return err
	})
	var parents []object.ID
	if c, err := t.repo.VCS.Commit(t.tip); err == nil {
		parents = c.Parents
	}
	p.time("hosting.missing_objects_us", us, probeReps/10, func(int) error {
		_, err := hosting.MissingObjects(t.repo.VCS.Objects, t.tip, parents)
		return err
	})
	if p.err != nil {
		return nil, p.err
	}

	if err := probeCold(t, scratch, p.m); err != nil {
		return nil, err
	}
	if err := probeWrites(t, subtree, p.m); err != nil {
		return nil, err
	}
	if t.platform != nil {
		if err := probePlatform(t, p.m); err != nil {
			return nil, err
		}
	}
	return p.m, nil
}

// probeCold opens a copy of the repository's directory afresh, coldReps
// times: the cost of the open itself (pack index load) and of the first
// FunctionAt on it (pack reads, inflate, citation.cite decode).
func probeCold(t *probeTarget, scratch string, m map[string]float64) error {
	cold := filepath.Join(scratch, "probe-cold")
	if err := copyTree(t.dir, cold); err != nil {
		return err
	}
	defer os.RemoveAll(cold)
	if r, err := gitcite.OpenPackedRepository(cold, t.meta); err != nil { // folds the copied index journal once
		return err
	} else if err := r.Close(); err != nil {
		return err
	}
	var openNS, coldFnNS float64
	for i := 0; i < coldReps; i++ {
		t0 := time.Now()
		r, err := gitcite.OpenPackedRepository(cold, t.meta)
		t1 := time.Now()
		if err != nil {
			return err
		}
		_, err = r.FunctionAt(t.tip)
		t2 := time.Now()
		if cerr := r.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("probe cold open: %w", err)
		}
		openNS += float64(t1.Sub(t0))
		coldFnNS += float64(t2.Sub(t1))
	}
	m["store.pack_open_us"] = openNS / coldReps / 1e3
	m["gitcite.function_at_cold_us"] = coldFnNS / coldReps / 1e3
	return nil
}

// probeWrites times ForkCite, Checkout, Commit, CopyCite and MergeCite on a
// fork of the workload's history.
func probeWrites(t *probeTarget, subtree string, m map[string]float64) error {
	var forkNS, checkoutNS, commitNS, copyNS, mergeNS float64
	clk := &clock{n: 1 << 20} // later than anything the workload committed
	for i := 0; i < coldReps; i++ {
		t0 := time.Now()
		fork, err := gitcite.Fork(t.source, gitcite.Meta{Owner: "probe", Name: fmt.Sprintf("fork%d", i)})
		forkNS += float64(time.Since(t0))
		if err != nil {
			return fmt.Errorf("probe fork: %w", err)
		}
		t0 = time.Now()
		wt, err := fork.Checkout("main")
		checkoutNS += float64(time.Since(t0))
		if err != nil {
			return fmt.Errorf("probe checkout: %w", err)
		}
		file := t.paths[0] // every workload lists its files first
		if err := wt.WriteFile(file, fileBody(file, uint32(i))); err != nil {
			return err
		}
		t0 = time.Now()
		_, err = wt.Commit(clk.commit("probe edit"))
		commitNS += float64(time.Since(t0))
		if err != nil {
			return fmt.Errorf("probe commit: %w", err)
		}
		t0 = time.Now()
		err = wt.CopyCite(t.source, t.tip, subtree, "/probe/copy")
		copyNS += float64(time.Since(t0))
		if err != nil {
			return fmt.Errorf("probe copycite: %w", err)
		}
		base, err := wt.Commit(clk.commit("probe copy"))
		if err != nil {
			return err
		}
		// Diverge on one citation, then merge.
		if err := fork.VCS.CreateBranch("side", base); err != nil {
			return err
		}
		side, err := fork.Checkout("side")
		if err != nil {
			return err
		}
		theirs, ours := genCitation(rngFor(uint64(i), "probe-theirs"), subtree), genCitation(rngFor(uint64(i), "probe-ours"), subtree)
		if err := side.ModifyCite(subtree, theirs); err != nil {
			return err
		}
		if _, err := side.Commit(clk.commit("side")); err != nil {
			return err
		}
		if err := wt.ModifyCite(subtree, ours); err != nil {
			return err
		}
		if _, err := wt.Commit(clk.commit("main")); err != nil {
			return err
		}
		t0 = time.Now()
		res, err := fork.MergeBranches("main", "side", gitcite.MergeOptions{
			Citations: gitcite.CiteMergeOptions{Strategy: gitcite.StrategyTheirs},
			Commit:    clk.commit("probe merge"),
		})
		mergeNS += float64(time.Since(t0))
		if err != nil || len(res.CiteConflicts) != 1 {
			return fmt.Errorf("probe merge: %d citation conflicts, want 1 (%v)", len(res.CiteConflicts), err)
		}
	}
	m["gitcite.fork_us"] = forkNS / coldReps / 1e3
	m["gitcite.checkout_us"] = checkoutNS / coldReps / 1e3
	m["gitcite.commit_us"] = commitNS / coldReps / 1e3
	m["gitcite.copycite_us"] = copyNS / coldReps / 1e3
	m["gitcite.merge_us"] = mergeNS / coldReps / 1e3
	return nil
}

// probePlatform times repository acquisition and replays the GenCite handler
// step by step from outside (the shadow GenCite): acquire, resolve the
// revision, generate, encode the entry, marshal the response.
func probePlatform(t *probeTarget, m map[string]float64) error {
	ctx := context.Background()
	p := &prober{m: m}
	acquire := func(name string) error {
		_, release, err := t.platform.AcquireRepo(ctx, t.owner, name)
		if err == nil {
			release()
		}
		return err
	}
	p.time("hosting.acquire_hit_us", 1e3, probeReps, func(int) error { return acquire(t.name) })
	if len(t.others) > openRepoLimit {
		// Cycling through more repositories than the LRU holds makes every
		// acquisition of the second sweep a reopen.
		sweep := func(i int) error { return acquire(t.others[i]) }
		p.time("hosting.acquire_reopen_us", 1e3, len(t.others), sweep)
		p.time("hosting.acquire_reopen_us", 1e3, len(t.others), sweep)
	}
	if p.err != nil {
		return p.err
	}

	var step [5]time.Duration
	const shadowReps = 500
	for i := 0; i < shadowReps; i++ {
		path := t.paths[i%len(t.paths)]
		t0 := time.Now()
		repo, release, err := t.platform.AcquireRepo(ctx, t.owner, t.name)
		if err != nil {
			return err
		}
		t1 := time.Now()
		commit, err := repo.VCS.BranchTip("main")
		if err == nil {
			_, err = repo.VCS.Commit(commit)
		}
		t2 := time.Now()
		var cite core.Citation
		var from string
		if err == nil {
			cite, from, err = repo.Generate(commit, path)
		}
		t3 := time.Now()
		var entry []byte
		if err == nil {
			entry, err = citefile.EncodeEntry(cite)
		}
		t4 := time.Now()
		if err == nil {
			_, err = json.Marshal(hosting.CiteResponse{Path: path, From: from, Citation: entry})
		}
		t5 := time.Now()
		release()
		if err != nil {
			return fmt.Errorf("shadow GenCite %s: %w", path, err)
		}
		for k, d := range []time.Duration{t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3), t5.Sub(t4)} {
			step[k] += d
		}
	}
	var sum time.Duration
	for _, d := range step {
		sum += d
	}
	m["hosting.response_encode_us"] = float64(step[4]) / shadowReps / 1e3
	m["shadow.sum_us"] = float64(sum) / shadowReps / 1e3 // divided by the traced serve span later
	return nil
}
