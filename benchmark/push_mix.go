package main

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"time"

	"github.com/gitcite/gitcite"
	"github.com/gitcite/gitcite/internal/citefile"
	"github.com/gitcite/gitcite/internal/vcs/object"
	"github.com/gitcite/gitcite/internal/vcs/store"
)

// pushMix puts writes beside reads on the same layers: pushes from a local
// mirror (commit, negotiate against the server's tips, NDJSON upload,
// closure verification, one raw batch write, ref update under the edit
// lock), reads of a branch whose tip has usually just moved (a function-cache
// miss every time), incremental fetches into a second mirror and server-side
// citation edits. A read-path gain that taxes writes, or the reverse, shows
// here.
type pushMix struct {
	hosted
	push []*pushRepo
	edit []*editRepo
}

// pushRepo is one pushed project with both its client-side mirrors.
type pushRepo struct {
	name     string
	fx       *fixture
	mirror   *gitcite.Repository // the author's working repository
	wt       *gitcite.Worktree
	follower *gitcite.Repository // a reader's clone, kept current by fetch
	clk      *clock
	pushes   int
	// pin is an answer the server gave when an earlier version was the tip:
	// asking for that version again must give the same bytes however many
	// pushes have landed since (a generated citation keeps identifying the
	// same thing).
	pin struct {
		hex, path, from string
		entry           []byte
	}
}

// editRepo is one project whose citations are edited through the platform.
type editRepo struct {
	name  string
	slots []string // files with no citation of their own
}

// The op classes of push-mix, in the order classes lists them.
const (
	mixPush = iota
	mixCite
	mixFetch
	mixEdit
)

func (w *pushMix) classes() []opClass {
	return []opClass{mixPush: {"push", 50}, mixCite: {"cite", 25}, mixFetch: {"fetch", 10}, mixEdit: {"edit", 15}}
}

func (w *pushMix) headline() []string { return []string{"push"} }

func (w *pushMix) setup(e *env) error {
	if err := w.boot(e); err != nil {
		return err
	}
	sz := e.sz
	c := w.sut.client(w.token)
	build := func(name string) (*fixture, *gitcite.Repository, *gitcite.Worktree, *clock, error) {
		mirror, meta, err := w.newMirror(name)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		rng := rngFor(e.seed, "push-mix/"+name)
		fx := genFixture(rng, meta, sz.pushFiles, sz.pushDepth, 8, 0)
		clk := &clock{}
		wt, _, err := fx.populate(mirror, rng, clk)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		return fx, mirror, wt, clk, w.host(c, mirror, name)
	}
	for i := 0; i < sz.pushRepos; i++ {
		r := &pushRepo{name: fmt.Sprintf("proj%02d", i)}
		var err error
		if r.fx, r.mirror, r.wt, r.clk, err = build(r.name); err != nil {
			return err
		}
		if r.follower, _, err = w.newMirror(r.name); err != nil {
			return err
		}
		if _, _, err := c.Fetch(r.follower, w.owner, r.name, "main", "main"); err != nil {
			return fmt.Errorf("clone %s: %w", r.name, err)
		}
		if err := w.repin(c, r, r.fx.files[0]); err != nil {
			return err
		}
		w.push = append(w.push, r)
	}
	for i := 0; i < sz.editRepos; i++ {
		r := &editRepo{name: fmt.Sprintf("edit%02d", i)}
		fx, _, _, _, err := build(r.name)
		if err != nil {
			return err
		}
		r.slots = fx.uncited()
		w.edit = append(w.edit, r)
	}
	return nil
}

// repin records the server's answer for path at the mirror's current tip.
func (w *pushMix) repin(c *gitcite.Client, r *pushRepo, path string) error {
	tip, err := r.mirror.VCS.BranchTip("main")
	if err != nil {
		return err
	}
	cite, from, err := c.GenCite(w.owner, r.name, tip.String(), path)
	if err != nil {
		return fmt.Errorf("pin %s@%s: %w", r.name, tip.Short(), err)
	}
	entry, err := citefile.EncodeEntry(cite)
	if err != nil {
		return err
	}
	r.pin.hex, r.pin.path, r.pin.from, r.pin.entry = tip.String(), path, from, entry
	return nil
}

// client i owns the repositories i, i+C, …: nobody else pushes to, fetches or
// edits them, so its mirrors are always the truth about their server state.
func (w *pushMix) client(i int) (client, error) {
	pc := &pushClient{w: w, c: w.sut.client(w.token)}
	for j := i; j < len(w.push); j += w.e.clients {
		pc.push = append(pc.push, w.push[j])
	}
	for j := i; j < len(w.edit); j += w.e.clients {
		pc.edit = append(pc.edit, w.edit[j])
	}
	if len(pc.push) == 0 || len(pc.edit) == 0 {
		return nil, fmt.Errorf("push-mix: client %d has no repositories", i)
	}
	return pc, nil
}

type pushClient struct {
	w    *pushMix
	c    *gitcite.Client
	push []*pushRepo
	edit []*editRepo
}

func (pc *pushClient) do(o op, rec *recorder) (time.Duration, error) {
	w, c, e := pc.w, pc.c, pc.w.e
	switch o.class {
	case mixPush: // edit two files, commit on the mirror, sync until acknowledged
		r := pc.push[int(o.draw[0])%len(pc.push)]
		for _, dr := range o.draw[1:3] {
			p := r.fx.files[int(dr)%len(r.fx.files)]
			if err := r.wt.WriteFile(p, fileBody(p, dr+uint32(r.pushes))); err != nil {
				return 0, err
			}
		}
		r.pushes++
		opts := r.clk.commit(fmt.Sprintf("push %d", r.pushes))
		dc, err := e.call("gitcite.commit", func() error {
			_, err := r.wt.Commit(opts)
			return err
		})
		if err != nil {
			return dc, err
		}
		var sent int
		ds, err := e.call("extension.sync", func() (err error) {
			sent, err = c.Sync(r.mirror, w.owner, r.name, "main")
			return err
		})
		if err == nil && sent < 3 {
			err = fmt.Errorf("push %s uploaded %d objects, want at least a commit, a tree and a blob", r.name, sent)
		}
		rec.count("pushes", 1)
		rec.count("push_objects", int64(sent))
		return dc + ds, err
	case mixCite: // at the tip that usually just moved; every fourth, the pinned old version
		r := pc.push[int(o.draw[0])%len(pc.push)]
		if o.draw[3]%4 == 0 {
			var got gitcite.Citation
			var from string
			d, err := e.call("extension.cite", func() (err error) {
				got, from, err = c.GenCite(w.owner, r.name, r.pin.hex, r.pin.path)
				return err
			})
			if err == nil {
				entry, eerr := citefile.EncodeEntry(got)
				if eerr != nil || from != r.pin.from || !bytes.Equal(entry, r.pin.entry) {
					err = fmt.Errorf("%s@%s %s changed after later pushes: %s from %q, was %s from %q (%v)",
						r.name, r.pin.hex[:7], r.pin.path, entry, from, r.pin.entry, r.pin.from, eerr)
				}
			}
			if err == nil && o.draw[3]%16 == 0 {
				// Move the pin forward now and then so it is not always the
				// set-up version.
				err = w.repin(c, r, r.fx.files[int(o.draw[1])%len(r.fx.files)])
			}
			return d, err
		}
		// The mirror is the truth about the tip: nobody else pushes here.
		p := r.fx.files[int(o.draw[1])%len(r.fx.files)]
		tip, err := r.mirror.VCS.BranchTip("main")
		if err != nil {
			return 0, err
		}
		want, wantFrom, err := r.mirror.Generate(tip, p)
		if err != nil {
			return 0, err
		}
		return w.cite(c, r.name, "main", p, expect{from: wantFrom, cite: &want})
	case mixFetch: // the reader's clone catches up with whatever was pushed since
		r := pc.push[int(o.draw[0])%len(pc.push)]
		var tip gitcite.CommitID
		var n int
		d, err := e.call("extension.fetch", func() (err error) {
			tip, n, err = c.Fetch(r.follower, w.owner, r.name, "main", "main")
			return err
		})
		if err == nil {
			if want, terr := r.mirror.VCS.BranchTip("main"); terr != nil || tip != want {
				err = fmt.Errorf("fetch %s arrived at %s, mirror is at %s (%v)", r.name, tip.Short(), want.Short(), terr)
			}
		}
		rec.count("fetches", 1)
		rec.count("fetch_objects", int64(n))
		return d, err
	default: // mixEdit: AddCite → ModifyCite → DelCite on one path, each a server-side commit
		r := pc.edit[int(o.draw[0])%len(pc.edit)]
		p := r.slots[int(o.draw[1])%len(r.slots)]
		added := genCitation(rngFor(uint64(o.draw[2]), "add"), p)
		modified := genCitation(rngFor(uint64(o.draw[3]), "modify"), p)
		var hex string
		d, err := e.call("extension.edit", func() error {
			if _, err := c.AddCite(w.owner, r.name, "main", p, added); err != nil {
				return fmt.Errorf("AddCite %s: %w", p, err)
			}
			var err error
			if hex, err = c.ModifyCite(w.owner, r.name, "main", p, modified); err != nil {
				return fmt.Errorf("ModifyCite %s: %w", p, err)
			}
			if _, err := c.DelCite(w.owner, r.name, "main", p); err != nil {
				return fmt.Errorf("DelCite %s: %w", p, err)
			}
			return nil
		})
		if err == nil {
			// The version ModifyCite recorded must answer with the modified
			// citation, from the edited path itself.
			got, from, gerr := c.GenCite(w.owner, r.name, hex, p)
			if gerr != nil {
				return d, gerr
			}
			err = expect{from: p, cite: &modified}.check(got, from)
		}
		rec.count("edit_commits", 3)
		return d, err
	}
}

// finish checks that every pushed repository ended where its mirror is: the
// same tip and the same reachable object set, read straight from the
// platform's store.
func (w *pushMix) finish() error {
	c := w.sut.client(w.token)
	for _, r := range w.push {
		want, err := r.mirror.VCS.BranchTip("main")
		if err != nil {
			return err
		}
		meta, err := c.GetRepo(w.owner, r.name)
		if err != nil {
			return err
		}
		if meta.Tips["main"] != want.String() {
			return fmt.Errorf("%s: server tip %s, mirror tip %s", r.name, meta.Tips["main"], want)
		}
		hosted, release, err := w.sut.platform.AcquireRepo(context.Background(), w.owner, r.name)
		if err != nil {
			return err
		}
		serverIDs, err := closureIDs(hosted.VCS.Objects, want)
		release()
		if err != nil {
			return err
		}
		mirrorIDs, err := closureIDs(r.mirror.VCS.Objects, want)
		if err != nil {
			return err
		}
		if len(serverIDs) != len(mirrorIDs) {
			return fmt.Errorf("%s: server closure has %d objects, mirror %d", r.name, len(serverIDs), len(mirrorIDs))
		}
		for i := range serverIDs {
			if serverIDs[i] != mirrorIDs[i] {
				return fmt.Errorf("%s: closures differ at %s / %s", r.name, serverIDs[i].Short(), mirrorIDs[i].Short())
			}
		}
	}
	return checkBelowRepackThreshold(w.e.dir)
}

// closureIDs returns the sorted IDs reachable from tip.
func closureIDs(s store.Store, tip object.ID) ([]object.ID, error) {
	var ids []object.ID
	err := store.WalkClosure(s, func(id object.ID, _ object.Object) error {
		ids = append(ids, id)
		return nil
	}, tip)
	sort.Slice(ids, func(i, j int) bool { return bytes.Compare(ids[i][:], ids[j][:]) < 0 })
	return ids, err
}

func (w *pushMix) probe() (*probeTarget, error) {
	r := w.push[0]
	return w.hostedProbe(r.name, r.mirror, r.fx.files)
}
