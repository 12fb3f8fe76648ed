// Command benchmark is the repository's benchmark: four named workloads
// driven closed-loop against the production configuration (a pack-backed
// platform behind the REST server on loopback, or the local tool's on-disk
// repository), every response verified, end-to-end metrics from untraced
// phases and per-layer metrics from a separate traced pass and probes that
// time each layer from outside. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

type config struct {
	seed      uint64
	workloads []string
	clients   int
	seconds   float64
	trace     string // "0": measured phase only; "1": traced pass only; "both"
	dataDir   string
	out       string
	traceOut  string
	quick     bool
	selfcheck bool
	sz        sizes
	stdout    io.Writer // where the report goes
}

// result is everything one workload reported.
type result struct {
	Workload  string                `json:"workload"`
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	EndToEnd  map[string]float64    `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64    `json:"per_layer,omitempty"`
	Classes   map[string]classStats `json:"classes,omitempty"`
	Samples   map[string]int        `json:"samples,omitempty"` // sample count behind each latency metric
	Slices    []sliceStats          `json:"slices,omitempty"`  // the measured phase, slice by slice
}

// classStats is the client-observed latency of one op class (or in-op
// series) over the measured phase.
type classStats struct {
	N     int     `json:"n"`
	P50us float64 `json:"p50_us"`
	P99us float64 `json:"p99_us,omitempty"` // only with at least p99MinSamples samples
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	ok, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

func parseFlags(args []string) (*config, error) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	cfg := &config{stdout: os.Stdout}
	workloads := fs.String("workload", strings.Join(workloadNames, ","), "comma-separated workloads to run")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed every generated input derives from")
	fs.Float64Var(&cfg.seconds, "seconds", 27, "length of the measured phase of each workload")
	fs.StringVar(&cfg.trace, "trace", "both", "0: measured phase, end-to-end metrics; 1: traced pass and probes, per-layer metrics; both")
	fs.IntVar(&cfg.clients, "clients", 2, "closed-loop clients of the measured phase")
	fs.StringVar(&cfg.dataDir, "data-dir", ".bench_build/data", "directory the passes create their data directories under (each is removed afterwards)")
	fs.StringVar(&cfg.out, "out", "", "write the full results as JSON to this file")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "write the traced passes' spans as JSON lines to this file")
	fs.BoolVar(&cfg.quick, "quick", false, "tiny inputs and short phases: a smoke test, not a measurement")
	fs.BoolVar(&cfg.selfcheck, "selfcheck", false, "measure every workload in two interleaved sets and fail unless the second set's medians are within BENCHMARK.json's bounds of the first's")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	for _, name := range strings.Split(*workloads, ",") {
		if _, err := newWorkload(name); err != nil {
			return nil, err
		}
		cfg.workloads = append(cfg.workloads, name)
	}
	if cfg.trace != "0" && cfg.trace != "1" && cfg.trace != "both" {
		return nil, fmt.Errorf("-trace %q: want 0, 1 or both", cfg.trace)
	}
	if cfg.clients < 1 || cfg.seconds <= 0 {
		return nil, errors.New("-clients and -seconds must be positive")
	}
	cfg.sz = fullSizes()
	if cfg.quick {
		cfg.sz = quickSizes()
	}
	return cfg, nil
}

// runInfo records where and how a run was made.
type runInfo struct {
	Seed       uint64   `json:"seed"`
	Clients    int      `json:"clients"`
	Seconds    float64  `json:"seconds"`
	Quick      bool     `json:"quick"`
	Workloads  []string `json:"workloads"`
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	DataDirFS  string   `json:"data_dir_fs"`
	Commit     string   `json:"commit"`
}

func (cfg *config) info() runInfo {
	commit := os.Getenv("GITCITE_BENCH_COMMIT") // run.sh sets it from git when there is a repository
	if commit == "" {
		commit = "unknown"
	}
	return runInfo{
		Seed: cfg.seed, Clients: cfg.clients, Seconds: cfg.seconds,
		Quick: cfg.quick, Workloads: cfg.workloads,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		DataDirFS: fsType(cfg.dataDir), Commit: commit,
	}
}

// run executes the configured passes and prints the report; ok is false when
// any operation failed, answered wrongly, or an end-state check did not hold.
func run(cfg *config) (ok bool, err error) {
	if err := os.MkdirAll(cfg.dataDir, 0o755); err != nil {
		return false, err
	}
	info := cfg.info()
	head, _ := json.Marshal(info)
	fmt.Fprintf(cfg.stdout, "run %s\n", head)
	if cfg.traceOut != "" {
		if err := os.Remove(cfg.traceOut); err != nil && !errors.Is(err, os.ErrNotExist) {
			return false, err
		}
	}
	if cfg.selfcheck {
		return selfcheck(cfg)
	}
	ok = true
	var results []*result
	for _, name := range cfg.workloads {
		res := &result{Workload: name, Correct: true}
		if cfg.trace != "1" {
			if err := runMeasured(cfg, name, res); err != nil {
				return false, fmt.Errorf("%s: %w", name, err)
			}
		}
		if cfg.trace != "0" {
			if err := runTraced(cfg, name, res); err != nil {
				return false, fmt.Errorf("%s: %w", name, err)
			}
		}
		report(cfg.stdout, res)
		results = append(results, res)
		ok = ok && res.Correct
	}
	if cfg.out != "" {
		doc, err := json.MarshalIndent(struct {
			Run     runInfo   `json:"run"`
			Results []*result `json:"results"`
		}{info, results}, "", "  ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(cfg.out, append(doc, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	// The last line is the machine-readable result of the last workload.
	for _, res := range results {
		fmt.Fprintln(cfg.stdout, res.line())
	}
	return ok, nil
}

// each calls f with every metric the workload reported, in table order.
func (res *result) each(f func(d metricDef, v float64)) {
	for _, d := range endToEnd {
		if v, ok := res.EndToEnd[d.name]; ok {
			f(d, v)
		}
	}
	for _, d := range perLayer {
		if v, ok := res.PerLayer[d.name]; ok {
			f(d, v)
		}
	}
}

// report prints one workload's metrics, one per line, by name and with unit.
func report(w io.Writer, res *result) {
	res.each(func(d metricDef, v float64) {
		line := fmt.Sprintf("metric %s %s %s %s", res.Workload, d.name, formatValue(v), d.unit)
		if n, ok := res.Samples[d.name]; ok {
			line += fmt.Sprintf(" n=%d", n)
		}
		fmt.Fprintln(w, line)
	})
	names := make([]string, 0, len(res.Classes))
	for k := range res.Classes {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		c := res.Classes[k]
		line := fmt.Sprintf("class %s %s n=%d p50_us=%s", res.Workload, k, c.N, formatValue(c.P50us))
		if c.N >= p99MinSamples {
			line += " p99_us=" + formatValue(c.P99us)
		}
		fmt.Fprintln(w, line)
	}
	if res.Attempted > 0 {
		fmt.Fprintf(w, "check %s attempted=%d failed=%d error_ratio=%s correct=%v\n", res.Workload, res.Attempted, res.Failed,
			formatValue(float64(res.Failed)/float64(res.Attempted)), res.Correct)
	}
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.6g", v)
}

// line is the workload's machine-readable result: correctness, counts, and
// every metric measured, each with its unit.
func (res *result) line() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	res.each(func(d metricDef, v float64) { metrics[d.name] = mv{v, d.unit} })
	out, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, max(res.Attempted, 1), res.Failed, metrics})
	return string(out)
}

// pass is one prepared workload instance on its own data directory.
type pass struct {
	w   workload
	e   *env
	dir string
}

func (cfg *config) open(name, label string, clients int, tr *tracer) (*pass, time.Duration, error) {
	dir, err := freshDir(cfg.dataDir, name+"-"+label)
	if err != nil {
		return nil, 0, err
	}
	w, _ := newWorkload(name)
	e := &env{seed: cfg.seed, sz: cfg.sz, dir: dir, tr: tr, clients: clients}
	t0 := time.Now()
	if err := w.setup(e); err != nil {
		os.RemoveAll(dir)
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return &pass{w: w, e: e, dir: dir}, time.Since(t0), nil
}

func (p *pass) close() error {
	err := p.w.close()
	if rerr := os.RemoveAll(p.dir); err == nil {
		err = rerr
	}
	return err
}

// runMeasured is the end-to-end half: set-up, an unrecorded fixed-count
// warm-up of the same mix, then the measured closed-loop phase with no
// instrumentation anywhere in the path, cut into slices of equal length.
//
// A workload whose operations grow the state they run against (fresh) starts
// every slice from a new set-up and the same warm-up and replays the same
// operation sequence: its slices are replicas, each set-up is a sample of
// setup_s, and -seconds covers set-ups and warm-ups too. The others set up
// several times first, for a steady setup_s, and then run -seconds of slices
// back to back on the last system.
func runMeasured(cfg *config, name string, res *result) error {
	var (
		p        *pass
		ph       *phase
		clients  = make([]client, cfg.clients)
		planners = make([]*planner, cfg.clients)
		setups   []float64
		warmed   recorder // attempted and failed of the warm-ups
	)
	defer func() {
		if p != nil {
			p.close()
		}
	}()
	setup := func() error {
		if p != nil {
			err := p.close()
			if p = nil; err != nil {
				return err
			}
		}
		var took time.Duration
		var err error
		if p, took, err = cfg.open(name, "measured", cfg.clients, nil); err != nil {
			return err
		}
		setups = append(setups, took.Seconds())
		return nil
	}
	// warmUp hands the system to the clients and runs a fixed number of
	// unrecorded operations, so that what follows — the heap reading, a slice —
	// starts from the same state every time.
	warmUp := func() error {
		ph = &phase{workload: name, classes: p.w.classes()}
		for i := range clients {
			var err error
			if clients[i], err = p.w.client(i); err != nil {
				return err
			}
			planners[i] = newPlanner(cfg.seed, name, i, ph.classes)
		}
		part, _ := ph.runCount(clients, planners, cfg.sz.warmOps[name])
		warmed.attempted += part.attempted
		warmed.failed += part.failed
		return nil
	}
	var finishErr error
	finish := func() {
		if err := p.w.finish(); err != nil && finishErr == nil {
			finishErr = err
			fmt.Fprintf(os.Stderr, "%s: end-state check failed: %v\n", name, err)
		}
	}

	start := time.Now()
	if err := setup(); err != nil {
		return err
	}
	fresh := p.w.fresh()
	if !fresh {
		// A cheap set-up is noisy in relative terms, so it repeats more often:
		// at least minSetups times, then on while the set-ups so far took less
		// than setupBudget together, up to maxSetups.
		spent := setups[0]
		for len(setups) < cfg.sz.minSetups || (len(setups) < cfg.sz.maxSetups && spent < setupBudget.Seconds()) {
			if err := setup(); err != nil {
				return err
			}
			spent += setups[len(setups)-1]
		}
	}
	if err := warmUp(); err != nil {
		return err
	}
	// The heap is read right after the first warm-up, so live_heap_mb is what
	// set-up plus that many operations keep reachable — not a function of how
	// many more a faster system completes before a deadline.
	heap := liveHeapMB()

	sliceLen := time.Duration(cfg.sz.sliceSeconds[name] * float64(time.Second))
	total := time.Duration(cfg.seconds * float64(time.Second))
	rec := newRecorder(len(ph.classes))
	var slices []slice
	run := func() {
		part, wall := ph.runFor(clients, planners, sliceLen)
		if h := headlineOf(p.w, ph, part); h.n() > 0 {
			slices = append(slices, slice{ops: part.attempted - part.failed, wall: wall, headline: h})
		}
		rec.merge(part)
	}
	if fresh {
		// Rounds of set-up, warm-up and one slice for as long as at least half
		// of another round fits into -seconds.
		for round := time.Since(start); ; {
			run()
			finish()
			if time.Since(start)+round/2 > total {
				break
			}
			roundStart := time.Now()
			if err := setup(); err != nil {
				return err
			}
			if err := warmUp(); err != nil {
				return err
			}
			round = time.Since(roundStart) + sliceLen
		}
	} else {
		for n := max(1, int(total/sliceLen)); n > 0; n-- {
			run()
		}
		finish()
	}

	res.Attempted += warmed.attempted + rec.attempted
	res.Failed += warmed.failed + rec.failed
	res.Correct = res.Correct && res.Failed == 0 && finishErr == nil
	res.Classes = map[string]classStats{}
	for i, c := range ph.classes {
		res.Classes[c.name] = statsOf(&rec.classes[i])
	}
	for k, s := range rec.extra {
		res.Classes[k] = statsOf(s)
	}
	if len(slices) == 0 {
		return errors.New("no headline operation completed")
	}
	q, floor := quietest(slices)
	for _, sl := range slices {
		st := sl.stats()
		st.Quiet = st.OpsPerS >= floor
		res.Slices = append(res.Slices, st)
	}
	if q.headline.n() < p99MinSamples {
		fmt.Fprintf(os.Stderr, "%s: headline_p99_us rests on %d samples, fewer than %d: treat it as noise\n", name, q.headline.n(), p99MinSamples)
	}
	res.EndToEnd = map[string]float64{
		"setup_s":         median(setups),
		"ops_per_s":       q.opsPerS(),
		"headline_p50_us": q.headline.us(50),
		"headline_p99_us": q.headline.us(99),
		"live_heap_mb":    heap,
	}
	res.Samples = map[string]int{"headline_p50_us": q.headline.n(), "headline_p99_us": q.headline.n(), "setup_s": len(setups)}
	return nil
}

// setupBudget is how long repeated set-ups may take together before the
// measured half stops repeating them (past the minimum count).
const setupBudget = 2 * time.Second

// slice is one stretch of the measured phase: the verified operations it
// completed, how long it ran, and its headline samples.
type slice struct {
	ops      int64
	wall     time.Duration
	headline *series
}

func (sl slice) opsPerS() float64 { return float64(sl.ops) / sl.wall.Seconds() }

// quietShare is the part of a phase's slices its reported numbers rest on:
// one in quietShare, rounded up.
const quietShare = 3

// quietest pools the third of the slices with the highest throughput into
// one. The machine is a few cores of a shared host, and what else runs there
// only ever slows a slice down — every operation in it, by tens of percent,
// for seconds at a time. The fastest slices are the ones the host left alone:
// throughput is their operations over their time, the percentiles are exact
// over their pooled headline samples. The slices themselves, quiet or not, go
// to the -out file. floor is the throughput of the slowest slice pooled.
func quietest(slices []slice) (q slice, floor float64) {
	byRate := append([]slice(nil), slices...)
	sort.Slice(byRate, func(i, j int) bool { return byRate[i].opsPerS() > byRate[j].opsPerS() })
	q = slice{headline: &series{}}
	for _, sl := range byRate[:(len(byRate)+quietShare-1)/quietShare] {
		q.ops += sl.ops
		q.wall += sl.wall
		q.headline.merge(sl.headline)
		floor = sl.opsPerS()
	}
	return q, floor
}

// sliceStats is what one slice of the measured phase saw, as the -out file
// records it: verified operations per second and the exact percentiles of its
// headline samples.
type sliceStats struct {
	OpsPerS float64 `json:"ops_per_s"`
	P50us   float64 `json:"headline_p50_us"`
	P99us   float64 `json:"headline_p99_us"`
	N       int     `json:"headline_n"`
	Quiet   bool    `json:"quiet"` // among the slices the reported numbers rest on
}

func (sl slice) stats() sliceStats {
	return sliceStats{OpsPerS: sl.opsPerS(), P50us: sl.headline.us(50), P99us: sl.headline.us(99), N: sl.headline.n()}
}

// headlineOf gathers the samples of the workload's headline operation.
func headlineOf(w workload, ph *phase, rec *recorder) *series {
	headline := &series{}
	for _, h := range w.headline() {
		if s, ok := rec.extra[h]; ok {
			headline.merge(s)
			continue
		}
		for i, c := range ph.classes {
			if c.name == h {
				headline.merge(&rec.classes[i])
			}
		}
	}
	return headline
}

func statsOf(s *series) classStats {
	st := classStats{N: s.n(), P50us: s.us(50)}
	if s.n() >= p99MinSamples {
		st.P99us = s.us(99)
	}
	return st
}

// runTraced is the per-layer half. One client runs a fixed number of
// operations from the seed twice on identical inputs: first with nothing
// installed (process accounting, harness self-accounting, and the probes run
// against this system), then with the timed wrappers in place and the tracer
// on. Counts repeat exactly from run to run; end-to-end numbers never come
// from here.
func runTraced(cfg *config, name string, res *result) error {
	n := cfg.sz.tracedOps[name]
	layers := map[string]float64{}
	for _, d := range perLayer {
		layers[d.name] = 0
	}
	bare, err := cfg.openFixed(name, "untraced", nil, n/4, res)
	if err != nil {
		return err
	}
	busy, packs, err := bare.untraced(n, layers, res)
	if cerr := bare.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	tr := newTracer()
	wrapped, err := cfg.openFixed(name, "traced", tr, n/4, res)
	if err != nil {
		return err
	}
	err = wrapped.traced(n, tr, busy, packs, layers, res)
	if cerr := wrapped.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if cfg.traceOut != "" {
		if err := writeSpans(cfg.traceOut, name, tr.spans); err != nil {
			return err
		}
	}
	layers["hosting.shadow_accounted_ratio"] = ratio(layers["shadow.sum_us"], layers["hosting.serve_cite_us"])
	delete(layers, "shadow.sum_us")
	res.PerLayer = layers
	return nil
}

// fixedPass is a workload instance set up for a fixed-count pass: one client
// that owns every repository — so it sees the regime the measured phase's
// clients see together, the whole set under one LRU — already warmed up.
type fixedPass struct {
	*pass
	ph       *phase
	clients  []client
	planners []*planner
}

func (cfg *config) openFixed(name, label string, tr *tracer, warmOps int, res *result) (*fixedPass, error) {
	p, _, err := cfg.open(name, label, 1, tr)
	if err != nil {
		return nil, err
	}
	c, err := p.w.client(0)
	if err != nil {
		p.close()
		return nil, err
	}
	fp := &fixedPass{pass: p, ph: &phase{workload: name, classes: p.w.classes(), tr: tr}, clients: []client{c}}
	fp.planners = []*planner{newPlanner(cfg.seed, name, 0, fp.ph.classes)}
	warm, _ := fp.ph.runCount(fp.clients, fp.planners, warmOps)
	res.Attempted += warm.attempted
	res.Failed += warm.failed
	return fp, nil
}

// ops executes n operations; the tracer, if any, is on for exactly that long.
func (fp *fixedPass) ops(n int) (*recorder, time.Duration) {
	if fp.ph.tr != nil {
		fp.ph.tr.on.Store(true)
		defer fp.ph.tr.on.Store(false)
	}
	return fp.ph.runCount(fp.clients, fp.planners, n)
}

// finish checks the end state and adds the pass's outcome to res.
func (fp *fixedPass) finish(rec *recorder, res *result) {
	finishErr := fp.w.finish()
	if finishErr != nil {
		fmt.Fprintf(os.Stderr, "%s: end-state check failed: %v\n", fp.ph.workload, finishErr)
	}
	res.Attempted += rec.attempted
	res.Failed += rec.failed
	res.Correct = res.Correct && res.Failed == 0 && finishErr == nil
}

// untraced runs the pass on the bare system and fills in the process.*,
// bench.gen_us_per_op, store.disk_bytes_per_write and probe metrics. It
// returns the pass's summed operation time and the pack files it left.
func (fp *fixedPass) untraced(n int, layers map[string]float64, res *result) (busy time.Duration, packs int, err error) {
	disk0, err := dirBytes(fp.dir)
	if err != nil {
		return 0, 0, err
	}
	before := sampleProc()
	rec, wall := fp.ops(n)
	for k, v := range processMetrics(before, sampleProc(), n) {
		layers[k] = v
	}
	disk1, err := dirBytes(fp.dir)
	if err != nil {
		return 0, 0, err
	}
	fp.finish(rec, res)
	layers["bench.gen_us_per_op"] = float64(wall-rec.busy) / float64(n) / 1e3
	writes := rec.counts["pushes"] + rec.counts["edit_commits"] + rec.counts["commits"]
	layers["store.disk_bytes_per_write"] = ratio(float64(disk1-disk0), float64(writes))
	if packs, _, err = packCensus(fp.dir); err != nil {
		return 0, 0, err
	}
	target, err := fp.w.probe()
	if err != nil {
		return 0, 0, err
	}
	defer target.release()
	probed, err := runProbes(target, fp.dir)
	for k, v := range probed {
		layers[k] = v
	}
	return rec.busy, packs, err
}

// traced runs the pass with the tracer on and fills in the span- and
// counter-based metrics. bareBusy and barePacks are what the untraced pass
// reported: the wrappers must not have changed what the program wrote.
func (fp *fixedPass) traced(n int, tr *tracer, bareBusy time.Duration, barePacks int, layers map[string]float64, res *result) error {
	before := fp.w.traced().counts()
	rec, _ := fp.ops(n)
	view := fp.w.traced()
	after := view.counts()
	fp.finish(rec, res)
	link(tr.spans)
	for k, v := range spanMetrics(tr.spans, before, after, rec, n) {
		layers[k] = v
	}
	layers["bench.traced_ops"] = float64(n)
	layers["bench.trace_overhead_ratio"] = ratio(float64(rec.busy), float64(bareBusy))
	if view.platform != nil {
		layers["hosting.open_repos"] = float64(view.platform.OpenRepoCount())
	}
	packs, _, err := packCensus(fp.dir)
	if err != nil {
		return err
	}
	layers["store.packs_end"] = float64(packs)
	if packs != barePacks {
		return fmt.Errorf("traced pass ended with %d packs, untraced with %d: the wrappers changed the program", packs, barePacks)
	}
	return nil
}
