package main

import (
	"fmt"
	"time"

	"github.com/gitcite/gitcite"
)

// sizes are the input dimensions of the four workloads. fullSizes are the
// ones every reported number refers to; quickSizes only exist so the test
// suite can boot all four workloads in seconds.
type sizes struct {
	hotFiles, hotDepth, hotCitedFiles, hotCommits, hotDeepMin int
	coldRepos, coldFiles, coldDepth, coldCommits              int
	pushRepos, editRepos, pushFiles, pushDepth                int
	localFiles, localDepth, localCitedFiles, localEditSlots   int
	donorPackages, copyFiles, copySlots                       int
	genciteBatch, chainBatch, renderBatch                     int
	treePage, chainPaths                                      int
	// tracedOps is the fixed operation count of the traced pass (and of the
	// untraced pass beside it), warmOps each client's unrecorded warm-up
	// before the measured phase; both per workload, sized to a few seconds.
	tracedOps, warmOps map[string]int
	// sliceSeconds is the length of one slice of the measured phase: long
	// enough that a slice's throughput is not a matter of which operations
	// it happened to draw, short enough that a run has dozens (a fresh
	// workload, which sets up before every slice, about a dozen).
	sliceSeconds map[string]float64
	// setup_s is the median of between minSetups and maxSetups set-ups.
	minSetups, maxSetups int
}

func fullSizes() sizes {
	return sizes{
		hotFiles: 2000, hotDepth: 12, hotCitedFiles: 64, hotCommits: 4, hotDeepMin: 10,
		coldRepos: 256, coldFiles: 48, coldDepth: 4, coldCommits: 8,
		pushRepos: 32, editRepos: 8, pushFiles: 256, pushDepth: 3,
		localFiles: 1000, localDepth: 6, localCitedFiles: 26, localEditSlots: 48,
		donorPackages: 8, copyFiles: 16, copySlots: 8,
		genciteBatch: 256, chainBatch: 8, renderBatch: 64,
		treePage: 200, chainPaths: 256,
		tracedOps: map[string]int{"hosted-hot": 1500, "hosted-cold": 1500, "push-mix": 1000, "local-authoring": 600},
		// push-mix warms up until the platform's event ring (4 096 events) is
		// full: publishing into a full ring costs about as much as the rest
		// of a push, and that, not the first seconds after boot, is the
		// regime a server lives in.
		warmOps:      map[string]int{"hosted-hot": 6000, "hosted-cold": 2000, "push-mix": 2200, "local-authoring": 100},
		sliceSeconds: map[string]float64{"hosted-hot": 0.5, "hosted-cold": 0.5, "push-mix": 1.5, "local-authoring": 2},
		minSetups:    3, maxSetups: 7,
	}
}

func quickSizes() sizes {
	return sizes{
		hotFiles: 120, hotDepth: 6, hotCitedFiles: 8, hotCommits: 2, hotDeepMin: 5,
		coldRepos: 80, coldFiles: 8, coldDepth: 2, coldCommits: 2,
		pushRepos: 4, editRepos: 2, pushFiles: 24, pushDepth: 2,
		localFiles: 60, localDepth: 3, localCitedFiles: 5, localEditSlots: 6,
		donorPackages: 2, copyFiles: 4, copySlots: 2,
		genciteBatch: 16, chainBatch: 2, renderBatch: 4,
		treePage: 50, chainPaths: 16,
		tracedOps:    map[string]int{"hosted-hot": 60, "hosted-cold": 60, "push-mix": 40, "local-authoring": 40},
		warmOps:      map[string]int{"hosted-hot": 50, "hosted-cold": 50, "push-mix": 10, "local-authoring": 10},
		sliceSeconds: map[string]float64{"hosted-hot": 0.1, "hosted-cold": 0.1, "push-mix": 0.1, "local-authoring": 0.1},
		minSetups:    1, maxSetups: 1,
	}
}

// env is what one pass of one workload runs against.
type env struct {
	seed    uint64
	sz      sizes
	dir     string  // this pass's own fresh data directory
	tr      *tracer // nil on untraced passes
	clients int
}

// call runs one call into the system under a span and returns how long it
// took. The clock brackets only f: planning before and verification after
// stay outside.
func (e *env) call(spanName string, f func() error) (time.Duration, error) {
	h := e.tr.start(spanName)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	e.tr.end(h)
	return d, err
}

// workload is one of the benchmark's four input sets with its operation mix.
type workload interface {
	classes() []opClass
	// headline names the op classes (or in-op series) whose latency is the
	// workload's headline_p50_us / headline_p99_us.
	headline() []string
	// setup builds the inputs from e.seed, boots the system and computes
	// the correctness oracle; its wall time is setup_s.
	setup(e *env) error
	client(i int) (client, error)
	// fresh reports whether the workload's operations grow the state they
	// run against so fast that a run's later operations would not compare
	// with its earlier ones; the measured phase then starts every slice from
	// a new set-up.
	fresh() bool
	// finish checks the end state once the clients have stopped.
	finish() error
	// probe hands the per-layer probes this workload's own inputs.
	probe() (*probeTarget, error)
	// traced reports what the traced pass's instrumentation saw (nil for a
	// pass without a tracer).
	traced() *tracedView
	close() error
}

// tracedView is the instrumentation a traced pass installed, for metric
// extraction afterwards.
type tracedView struct {
	stacks    *stackSet
	handler   *tracedHandler   // nil without HTTP
	transport *tracedTransport // nil without HTTP
	platform  *gitcite.Platform
	factoryN  int64
}

var workloadNames = []string{"hosted-hot", "hosted-cold", "push-mix", "local-authoring"}

func newWorkload(name string) (workload, error) {
	switch name {
	case "hosted-hot":
		return &hostedHot{}, nil
	case "hosted-cold":
		return &hostedCold{}, nil
	case "push-mix":
		return &pushMix{}, nil
	case "local-authoring":
		return &localAuthoring{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// expect is what GenCite must answer for one (commit, path).
type expect struct {
	from string
	cite *gitcite.Citation
}

// oracleFor computes from a local repository what GenCite must answer for
// every path at one commit. Paths resolved by the same entry share one
// citation value, so the table costs a string header and a pointer per path.
func oracleFor(repo *gitcite.Repository, commit gitcite.CommitID, paths []string) ([]expect, error) {
	byFrom := map[string]*gitcite.Citation{}
	out := make([]expect, len(paths))
	for i, p := range paths {
		cite, from, err := repo.Generate(commit, p)
		if err != nil {
			return nil, fmt.Errorf("oracle %s@%s: %w", p, commit.Short(), err)
		}
		c := byFrom[from]
		if c == nil {
			cc := cite.Clone()
			c = &cc
			byFrom[from] = c
		}
		out[i] = expect{from: from, cite: c}
	}
	return out, nil
}

func (x expect) check(got gitcite.Citation, from string) error {
	if from != x.from {
		return fmt.Errorf("citation resolved from %q, want %q", from, x.from)
	}
	if !got.Equal(*x.cite) {
		return fmt.Errorf("wrong citation from %q: got %v, want %v", from, got, *x.cite)
	}
	return nil
}

// hosted is the part the three HTTP workloads share: the booted system and
// the one account that owns every repository.
type hosted struct {
	e     *env
	sut   *sut
	owner string
	token string
}

func (h *hosted) boot(e *env) error {
	s, err := bootSUT(e.dir, e.tr)
	if err != nil {
		return err
	}
	h.e, h.sut, h.owner = e, s, "bench"
	h.token, err = s.client("").CreateUser(h.owner)
	if err != nil {
		s.close()
		return fmt.Errorf("create user: %w", err)
	}
	return nil
}

func (h *hosted) traced() *tracedView {
	if h.sut.tr == nil {
		return nil
	}
	return &tracedView{
		stacks: h.sut.stacks, handler: h.sut.handler, transport: h.sut.transport,
		platform: h.sut.platform, factoryN: h.sut.factoryN.Load(),
	}
}

func (h *hosted) close() error { return h.sut.close() }

func (h *hosted) fresh() bool { return false }

// finish is the end-state check every hosted workload shares.
func (h *hosted) finish() error { return checkBelowRepackThreshold(h.e.dir) }

// cite asks the platform for one citation and checks it against the oracle.
func (h *hosted) cite(c *gitcite.Client, name, rev, path string, want expect) (time.Duration, error) {
	var got gitcite.Citation
	var from string
	d, err := h.e.call("extension.cite", func() (err error) {
		got, from, err = c.GenCite(h.owner, name, rev, path)
		return err
	})
	if err == nil {
		err = want.check(got, from)
	}
	return d, err
}

// host creates name on the platform and pushes the mirror's main branch.
func (h *hosted) host(c *gitcite.Client, mirror *gitcite.Repository, name string) error {
	if err := c.CreateRepo(name, "https://git.example/"+h.owner+"/"+name, "MIT"); err != nil {
		return fmt.Errorf("create %s: %w", name, err)
	}
	if _, err := c.Sync(mirror, h.owner, name, "main"); err != nil {
		return fmt.Errorf("push %s: %w", name, err)
	}
	return nil
}

// newMirror creates the client-side in-memory repository for name.
func (h *hosted) newMirror(name string) (*gitcite.Repository, gitcite.Meta, error) {
	meta := gitcite.Meta{Owner: h.owner, Name: name, URL: "https://git.example/" + h.owner + "/" + name, License: "MIT"}
	repo, err := gitcite.NewRepository(meta)
	return repo, meta, err
}
